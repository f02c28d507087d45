package exact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
)

// roundTrip serializes t and loads it back, failing the test on any error.
func roundTrip(t *testing.T, table *Table) *Table {
	t.Helper()
	var buf bytes.Buffer
	n, err := table.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	// The file is the header and the values, nothing else.
	if want := int64(32+24*table.K()) + 8*table.States(); n != want {
		t.Fatalf("WriteTo wrote %d bytes, want 32 + 24k + 8·states = %d", n, want)
	}
	if got, want := table.SizeBytes(), 8*table.States(); !table.Mapped() && got != want {
		t.Fatalf("heap table SizeBytes = %d, want 8·states = %d", got, want)
	}
	got, err := ReadTableBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadTableBytes: %v", err)
	}
	return got
}

// checkBitIdentical compares two tables' geometry and values.
func checkBitIdentical(t *testing.T, got, want *Table) {
	t.Helper()
	if got.Latency() != want.Latency() || got.K() != want.K() || got.Planes() != want.Planes() {
		t.Fatalf("geometry differs: (L=%d k=%d p=%d) vs (L=%d k=%d p=%d)",
			got.Latency(), got.K(), got.Planes(), want.Latency(), want.K(), want.Planes())
	}
	gt, wt := got.Types(), want.Types()
	for j := range wt {
		if gt[j] != wt[j] {
			t.Fatalf("type %d differs: %+v vs %+v", j, gt[j], wt[j])
		}
	}
	gc, wc := got.Counts(), want.Counts()
	for j := range wc {
		if gc[j] != wc[j] {
			t.Fatalf("count %d differs: %d vs %d", j, gc[j], wc[j])
		}
	}
	if len(got.dp.value) != len(want.dp.value) {
		t.Fatalf("value lengths differ: %d vs %d", len(got.dp.value), len(want.dp.value))
	}
	for i := range want.dp.value {
		if got.dp.value[i] != want.dp.value[i] {
			t.Fatalf("value[%d]: %d vs %d", i, got.dp.value[i], want.dp.value[i])
		}
	}
}

// TestTableRoundTripRandom is the differential harness of the store: for
// randomized networks — including recv-tied palettes where T is not
// monotone and the pruning fallback engages — a serialized-then-loaded
// table must be bit-identical to a fresh sequential FillAll, and both
// (dedup'd by construction) must agree state-for-state with the
// non-dedup'd recursive reference fill.
func TestTableRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77001))
	for trial := 0; trial < 24; trial++ {
		var set *model.MulticastSet
		if trial%2 == 0 {
			set = randTypedSet(rng, 2+rng.Intn(8), 1+rng.Intn(3))
		} else {
			set = randTiedSet(rng, 2+rng.Intn(8), 2+rng.Intn(2))
		}
		table, err := BuildTable(set)
		if err != nil {
			t.Fatalf("trial %d: BuildTable: %v", trial, err)
		}
		loaded := roundTrip(t, table)
		checkBitIdentical(t, loaded, table)

		// Fresh sequential fill: the loaded bytes must match it exactly.
		inst, err := Analyze(set)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := inst.NewDP()
		if err != nil {
			t.Fatal(err)
		}
		fresh.FillAll()
		checkBitIdentical(t, loaded, &Table{dp: fresh})

		// Non-dedup'd reference oracle over every state of every source
		// type: equal-Send types must read the same shared plane the
		// reference computed independently for each of them.
		ref, err := newReference(set.Latency, inst.Types, inst.Counts)
		if err != nil {
			t.Fatal(err)
		}
		ref.FillAll()
		for s := 0; s < loaded.K(); s++ {
			for st := int64(0); st < loaded.dp.prod; st++ {
				if got, want := loaded.dp.value[loaded.dp.stateIndex(s, st)], ref.Value(s, st); got != want {
					t.Fatalf("trial %d: state (s=%d, vec=%d): loaded=%d reference=%d\nset %+v",
						trial, s, st, got, want, set)
				}
			}
		}
	}
}

// TestPlaneDedupSharesEqualSendPlanes pins down the dedup itself: on a
// network with equal-Send type runs the DP must store fewer planes than
// types, and every deduplicated lookup must agree with the non-dedup'd
// reference.
func TestPlaneDedupSharesEqualSendPlanes(t *testing.T) {
	types := []Type{{Send: 2, Recv: 3}, {Send: 2, Recv: 5}, {Send: 3, Recv: 4}, {Send: 3, Recv: 9}, {Send: 5, Recv: 6}}
	counts := []int{2, 2, 1, 2, 1}
	dp, err := New(3, types, counts)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Planes() != 3 {
		t.Fatalf("Planes() = %d, want 3 (sends 2, 3, 5)", dp.Planes())
	}
	if dp.States() != int64(dp.Planes())*dp.prod {
		t.Fatalf("States() = %d, want planes*prod = %d", dp.States(), int64(dp.Planes())*dp.prod)
	}
	dp.FillAll()
	if dp.stateIndex(0, 0) != dp.stateIndex(1, 0) || dp.stateIndex(2, 0) != dp.stateIndex(3, 0) {
		t.Fatal("equal-Send types do not share a plane")
	}
	if dp.stateIndex(1, 0) == dp.stateIndex(2, 0) {
		t.Fatal("distinct-Send types share a plane")
	}
	ref, err := newReference(3, types, counts)
	if err != nil {
		t.Fatal(err)
	}
	ref.FillAll()
	for s := range types {
		for st := int64(0); st < dp.prod; st++ {
			if got, want := dp.value[dp.stateIndex(s, st)], ref.Value(s, st); got != want {
				t.Fatalf("state (s=%d, vec=%d): dedup=%d reference=%d", s, st, got, want)
			}
		}
	}
}

// TestLoadedTableServesLookupsAndSchedules exercises the post-load API
// surface: constant-time lookups, set lookups, and a reconstruction
// driven purely by the persisted values.
func TestLoadedTableServesLookupsAndSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	set := randTypedSet(rng, 9, 3)
	table, err := BuildTable(set)
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, table)
	inst, err := Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	want, err := table.Lookup(inst.SourceType, inst.Counts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Lookup(inst.SourceType, inst.Counts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("loaded Lookup = %d, built = %d", got, want)
	}
	if rt, ok := loaded.LookupSet(set); !ok || rt != want {
		t.Fatalf("loaded LookupSet = (%d, %v), want (%d, true)", rt, ok, want)
	}
	sch, err := loaded.dp.ScheduleFor(set, inst.SourceType, inst.Counts, inst.DestsByType)
	if err != nil {
		t.Fatalf("reconstruction from loaded table: %v", err)
	}
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	if rt := model.RT(sch); rt != want {
		t.Fatalf("reconstructed schedule RT = %d, table says %d", rt, want)
	}
}

// TestReadTableRejectsCorruption walks the error surface the fuzz target
// explores: truncation at every boundary, bit flips everywhere, version
// skew, bad magic, and trailing garbage must all fail loudly.
func TestReadTableRejectsCorruption(t *testing.T) {
	set := figure1Set(t)
	table, err := BuildTable(set)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := table.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadTableBytes(good); err != nil {
		t.Fatalf("pristine bytes rejected: %v", err)
	}

	for _, cut := range []int{0, 7, 8, 31, 32, len(good) / 2, len(good) - 1} {
		if _, err := ReadTableBytes(good[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := ReadTableBytes(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	for i := 0; i < len(good); i++ {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x40
		tab, err := ReadTableBytes(mut)
		if err != nil {
			continue
		}
		// A surviving load must mean the flip landed somewhere genuinely
		// irrelevant — there is no such byte in the format.
		t.Errorf("bit flip at offset %d silently accepted (k=%d states=%d)", i, tab.K(), tab.States())
	}
	// Version 1 (values plus a choice array) and any later version are
	// rejected as bad tables, whatever follows the version field.
	for _, v := range []uint32{TableFormatVersion - 1, TableFormatVersion + 1} {
		skew := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(skew[8:], v)
		if _, err := ReadTableBytes(skew); !errors.Is(err, ErrBadTable) {
			t.Errorf("version %d: err = %v, want ErrBadTable", v, err)
		}
	}
}

// TestReadTableRejectsHostileValues covers what the checksum cannot: a
// writer that recomputes the CRC over values the fill never produced.
// (a) A value at or above the DP's inf sentinel is rejected at load, so
// no sum ScheduleFor forms can overflow. (b) A value below the true
// optimum passes the load's bounds check, but no split reaches it, so
// ScheduleFor reports an error instead of panicking or returning a tree
// that does not score the value.
func TestReadTableRejectsHostileValues(t *testing.T) {
	set := figure1Set(t)
	table, err := BuildTable(set)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := table.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	inst, err := Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	idx := table.dp.stateIndex(inst.SourceType, table.dp.encodeVec(inst.Counts))
	off := 32 + 24*table.K() + 8*int(idx)
	hostile := func(v int64) []byte {
		mut := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(mut[off:], uint64(v))
		binary.LittleEndian.PutUint32(mut[12:], crc32.Checksum(mut[16:], castagnoli))
		return mut
	}

	for _, v := range []int64{inf, inf + 1, math.MaxInt64, -1} {
		if _, err := ReadTableBytes(hostile(v)); !errors.Is(err, ErrBadTable) {
			t.Errorf("value %d: load err = %v, want ErrBadTable", v, err)
		}
	}

	opt := table.dp.value[idx]
	loaded, err := ReadTableBytes(hostile(opt - 1))
	if err != nil {
		t.Fatalf("in-range value rejected at load: %v", err)
	}
	if sch, err := loaded.dp.ScheduleFor(set, inst.SourceType, inst.Counts, inst.DestsByType); err == nil {
		t.Errorf("value %d below the optimum %d rebuilt a tree scoring %d", opt-1, opt, model.RT(sch))
	}
}

// TestTableFileRoundTrip covers the atomic file helpers and checks the
// temp file does not survive a successful rename.
func TestTableFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	set := figure1Set(t)
	table, err := BuildTable(set)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "net.hnowtbl")
	if err := WriteTableFile(path, table); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTableFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, loaded, table)
	// The spill is a shared artifact (CLI pre-build feeding a daemon under
	// another account); CreateTemp's private 0600 must not leak through.
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Errorf("spill file mode = %v (err %v), want 0644", st.Mode().Perm(), err)
	}
	// Header-only read: identity without the payload, and coverage rules
	// matching LookupSet (the full set covered, an over-sized one not).
	h, err := ReadTableHeaderFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Latency != table.Latency() || len(h.Types) != table.K() || h.Planes != table.Planes() {
		t.Errorf("header = %+v, table says L=%d k=%d planes=%d", h, table.Latency(), table.K(), table.Planes())
	}
	if !h.Covers(set) {
		t.Error("header does not cover the set the table was built from")
	}
	over := set.Clone()
	over.Nodes = append(over.Nodes, over.Nodes[1])
	if len(over.Nodes)-1 > h.Counts[0]+h.Counts[1] && h.Covers(over) {
		t.Error("header covers a set exceeding its inventory")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after atomic write, want 1", len(entries))
	}
}

// TestGoldenTablesLoad pins the format: the checked-in golden files of
// testdata (also the fuzz seed corpus) must keep loading and agree with a
// fresh fill of the same network. A failure here means the format changed
// without a version bump.
func TestGoldenTablesLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.hnowtbl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden table files in testdata")
	}
	for _, path := range paths {
		loaded, err := ReadTableFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		fresh, err := New(loaded.Latency(), loaded.Types(), loaded.Counts())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		fresh.FillAll()
		checkBitIdentical(t, loaded, &Table{dp: fresh})
	}
}
