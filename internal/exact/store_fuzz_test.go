package exact

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
)

// goldenNetworks are the networks behind the checked-in testdata corpus:
// a plain k=2 network, a k=3 network with an equal-Send run (dedup'd to 2
// planes), and the recv-tied non-monotone regression network.
var goldenNetworks = []struct {
	name    string
	latency int64
	types   []Type
	counts  []int
}{
	{"k2-basic", 1, []Type{{Send: 1, Recv: 1}, {Send: 2, Recv: 3}}, []int{3, 2}},
	{"k3-dedup", 2, []Type{{Send: 2, Recv: 3}, {Send: 2, Recv: 5}, {Send: 3, Recv: 4}}, []int{2, 2, 2}},
	{"k3-nonmonotone", 2, []Type{{Send: 2, Recv: 4}, {Send: 3, Recv: 4}, {Send: 4, Recv: 6}}, []int{3, 2, 3}},
}

func buildGolden(tb testing.TB, i int) *Table {
	tb.Helper()
	g := goldenNetworks[i]
	dp, err := New(g.latency, g.types, g.counts)
	if err != nil {
		tb.Fatal(err)
	}
	dp.FillAll()
	return &Table{dp: dp}
}

// TestRegenerateGoldenTables rewrites the testdata corpus. It is skipped
// in normal runs; set REGEN_GOLDEN=1 after a deliberate format version
// bump (and only then — the golden files pin the current format version).
func TestRegenerateGoldenTables(t *testing.T) {
	if os.Getenv("REGEN_GOLDEN") == "" {
		t.Skip("set REGEN_GOLDEN=1 to rewrite testdata golden tables")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for i, g := range goldenNetworks {
		path := filepath.Join("testdata", g.name+".hnowtbl")
		if err := WriteTableFile(path, buildGolden(t, i)); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
}

// FuzzTableDecode fuzzes ReadTableBytes with the golden corpus as seeds,
// plus deliberately broken variants so mutation starts on the error
// surface. The decoder must never panic; any input it accepts must be a
// canonical serialization: re-encoding it reproduces the input bytes
// exactly, and the loaded table must be fully filled. Rebuilding the tree
// for the full count vector from every source type must either fail with
// an error or yield a schedule that the engine scores at exactly the
// looked-up value: hostile values may be refused, never mis-served.
func FuzzTableDecode(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.hnowtbl"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no golden table files in testdata (run TestRegenerateGoldenTables with REGEN_GOLDEN=1)")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2]) // truncated
		skew := append([]byte(nil), data...)
		skew[8]++ // version skew
		f.Add(skew)
		flip := append([]byte(nil), data...)
		flip[len(flip)-3] ^= 0x10 // payload bit flip
		f.Add(flip)
	}
	f.Add([]byte(tableMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := ReadTableBytes(data)
		if err != nil {
			return // rejected inputs just must not panic
		}
		if tab.K() <= 0 || tab.Planes() <= 0 || tab.Planes() > tab.K() || tab.States() <= 0 {
			t.Fatalf("accepted table has inconsistent geometry: k=%d planes=%d states=%d",
				tab.K(), tab.Planes(), tab.States())
		}
		var buf bytes.Buffer
		if _, err := tab.WriteTo(&buf); err != nil {
			t.Fatalf("accepted table failed to re-serialize: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted input is not canonical: re-encoding differs (%d vs %d bytes)",
				buf.Len(), len(data))
		}
		types, counts := tab.Types(), tab.Counts()
		for src := range types {
			set, destsByType := tableSet(tab.Latency(), types, src, counts)
			want, err := tab.Lookup(src, counts)
			if err != nil {
				t.Fatalf("source %d: full-vector lookup: %v", src, err)
			}
			sch, err := tab.dp.ScheduleFor(set, src, counts, destsByType)
			if err != nil {
				continue // refused: the values admit no tree
			}
			var eng model.Engine
			eng.Attach(sch)
			if got := eng.RT(); got != want {
				t.Fatalf("source %d: rebuilt tree scores %d, table value %d", src, got, want)
			}
		}
	})
}

// tableSet realizes a table's full count vector as a multicast set: node
// 0 of type src, then counts[j] destinations of type j, with the
// destination IDs grouped by type as ScheduleFor takes them.
func tableSet(latency int64, types []Type, src int, counts []int) (*model.MulticastSet, [][]model.NodeID) {
	set := &model.MulticastSet{Latency: latency, Nodes: []model.Node{{Send: types[src].Send, Recv: types[src].Recv}}}
	destsByType := make([][]model.NodeID, len(types))
	for j, c := range counts {
		for i := 0; i < c; i++ {
			destsByType[j] = append(destsByType[j], len(set.Nodes))
			set.Nodes = append(set.Nodes, model.Node{Send: types[j].Send, Recv: types[j].Recv})
		}
	}
	return set, destsByType
}
