package exact

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/model"
)

// writeTestTable builds a table for a smallish random network and
// persists it, returning the path and the built table for comparison.
func writeTestTable(t testing.TB, dir string, seed int64) (string, *Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	set := randTypedSet(rng, 9, 3)
	table, err := BuildTable(set)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "net.hnowtbl")
	if err := WriteTableFile(path, table); err != nil {
		t.Fatal(err)
	}
	return path, table
}

// TestOpenTableMappedBitIdentical: a mapped load must be state-for-state
// identical to the fresh fill it was persisted from, serve lookups, and
// report the mapped footprint on hosts with the mmap path.
func TestOpenTableMappedBitIdentical(t *testing.T) {
	dir := t.TempDir()
	path, built := writeTestTable(t, dir, 90210)
	mapped, err := OpenTableMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	checkBitIdentical(t, mapped, built)
	if runtime.GOOS == "linux" {
		if !mapped.Mapped() {
			t.Error("linux load did not map the file")
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := mapped.SizeBytes(); got != st.Size() {
			t.Errorf("mapped SizeBytes = %d, file is %d", got, st.Size())
		}
	}
	if built.Mapped() {
		t.Error("heap-built table claims to be mapped")
	}
	if built.SizeBytes() <= 0 {
		t.Errorf("heap SizeBytes = %d", built.SizeBytes())
	}
}

// TestOpenTableMappedRejectsCorruption: the mapped path must validate as
// strictly as the heap path and must not leak the mapping on rejection.
func TestOpenTableMappedRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeTestTable(t, dir, 4711)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTableMapped(path); err == nil {
		t.Fatal("corrupt file mapped and accepted")
	}
	if _, err := OpenTableMapped(filepath.Join(dir, "absent.hnowtbl")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestTableCloseDefersUnmapPastRetains is the lifecycle contract: a
// Close racing in-flight lookups must not invalidate the memory those
// lookups read — the unmap happens on the last Release. Run under -race.
func TestTableCloseDefersUnmapPastRetains(t *testing.T) {
	dir := t.TempDir()
	path, built := writeTestTable(t, dir, 1234)
	srcType, counts := 0, built.Counts()
	want, err := built.Lookup(srcType, counts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		tab, err := OpenTableMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		const borrowers = 4
		var wg sync.WaitGroup
		for i := 0; i < borrowers; i++ {
			tab.Retain()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer tab.Release()
				for j := 0; j < 50; j++ {
					got, err := tab.Lookup(srcType, counts)
					if err != nil || got != want {
						t.Errorf("retained lookup = (%d, %v), want %d", got, err, want)
						return
					}
				}
			}()
		}
		// Close concurrently with the borrowers: memory must stay valid
		// until every Release has run.
		if err := tab.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := tab.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
		if tab.Mapped() {
			t.Fatal("mapping survived close + drain")
		}
	}
}

// TestMappedLoadAllocatesTenXLess is the acceptance bar for the mmap
// path: a warm load via OpenTableMapped must allocate at least 10× fewer
// bytes than the ReadFile path, because the value array aliases the
// mapping instead of being read into fresh heap.
func TestMappedLoadAllocatesTenXLess(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("OpenTableMapped is the heap fallback off linux")
	}
	dir := t.TempDir()
	set := benchTableSet(t)
	table, err := BuildTable(set)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bench.hnowtbl")
	if err := WriteTableFile(path, table); err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	heapBytes := allocBytes(t, rounds, func() error {
		tab, err := ReadTableFile(path)
		if err != nil {
			return err
		}
		return tab.Close()
	})
	mappedBytes := allocBytes(t, rounds, func() error {
		tab, err := OpenTableMapped(path)
		if err != nil {
			return err
		}
		return tab.Close()
	})
	t.Logf("per-load allocations: ReadTableFile %d B, OpenTableMapped %d B (%.1f×)",
		heapBytes/rounds, mappedBytes/rounds, float64(heapBytes)/float64(mappedBytes))
	if heapBytes < 10*mappedBytes {
		t.Errorf("mapped load allocates %d B vs %d B for ReadFile — less than the required 10× saving",
			mappedBytes/rounds, heapBytes/rounds)
	}
}

// allocBytes measures the total bytes allocated by n invocations of fn.
func allocBytes(t testing.TB, n int, fn func() error) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// benchTableSet is a k=3 network big enough that the table payload
// dominates load cost (tens of thousands of states, ~1 MiB on disk).
func benchTableSet(t testing.TB) *model.MulticastSet {
	t.Helper()
	nodes := []model.Node{{Send: 3, Recv: 4}}
	for i, ty := range []model.Node{{Send: 1, Recv: 2}, {Send: 3, Recv: 4}, {Send: 6, Recv: 7}} {
		for j := 0; j < 38+i; j++ {
			nodes = append(nodes, ty)
		}
	}
	set, err := model.NewMulticastSet(5, nodes[0], nodes[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func benchmarkTableLoad(b *testing.B, load func(string) (*Table, error)) {
	dir := b.TempDir()
	set := benchTableSet(b)
	table, err := BuildTable(set)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "bench.hnowtbl")
	if err := WriteTableFile(path, table); err != nil {
		b.Fatal(err)
	}
	if st, err := os.Stat(path); err == nil {
		b.SetBytes(st.Size())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := load(path)
		if err != nil {
			b.Fatal(err)
		}
		tab.Close()
	}
}

// BenchmarkTableLoadReadFile vs BenchmarkTableLoadMapped: the warm-load
// cost of the two disk paths (run with -benchmem; allocated bytes is the
// headline number — the mapped path should be ≥10× cheaper).
func BenchmarkTableLoadReadFile(b *testing.B) { benchmarkTableLoad(b, ReadTableFile) }

func BenchmarkTableLoadMapped(b *testing.B) { benchmarkTableLoad(b, OpenTableMapped) }
