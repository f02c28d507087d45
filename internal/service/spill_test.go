package service

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/exact"
	"repro/internal/model"
)

// size reports how many networks the index knows about.
func (ix *spillIndex) size() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.entries)
}

// spillSet returns a small two-type network whose latency parameterizes
// distinct networks (and therefore distinct spill files).
func spillSet(t testing.TB, latency int64) *model.MulticastSet {
	t.Helper()
	fast := model.Node{Send: 1, Recv: 1}
	slow := model.Node{Send: 2, Recv: 3}
	set, err := model.NewMulticastSet(latency, slow, fast, fast, fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// fillSpillDir builds and spills one table per latency 1..n through a
// throwaway cache, returning the canonical sets.
func fillSpillDir(t testing.TB, dir string, n int) []*model.MulticastSet {
	t.Helper()
	c := newTableCache(0, dir)
	sets := make([]*model.MulticastSet, n)
	for i := range sets {
		sets[i] = Canonicalize(spillSet(t, int64(i+1)))
		inst, err := exact.Analyze(sets[i])
		if err != nil {
			t.Fatal(err)
		}
		tab, _, _, err := c.getOrBuild(inst, 1)
		if err != nil {
			t.Fatal(err)
		}
		tab.Release()
	}
	return sets
}

// TestSpillIndexCoversWithZeroDiskScans is the acceptance test for the
// index: against a spill directory of 64 networks, a compare-miss
// covering lookup must do no ReadDir and no header reads after startup —
// the index answers from memory and only the one matching file is loaded.
func TestSpillIndexCoversWithZeroDiskScans(t *testing.T) {
	dir := t.TempDir()
	const networks = 64
	sets := fillSpillDir(t, dir, networks)

	// Fresh cache: one startup scan builds the index.
	scansBefore := expTableDirScans.Value()
	headersBefore := expTableHeaderReads.Value()
	c := newTableCache(0, dir)
	if got := c.index.size(); got != networks {
		t.Fatalf("index holds %d networks, want %d", got, networks)
	}
	if got := expTableDirScans.Value() - scansBefore; got != 1 {
		t.Fatalf("startup did %d directory scans, want 1", got)
	}
	if got := expTableHeaderReads.Value() - headersBefore; got != networks {
		t.Fatalf("startup read %d headers, want %d", got, networks)
	}

	// A strict sub-multicast of one spilled network: its own key has no
	// file, so only the covering path can answer. After startup that path
	// must be pure memory + one keyed load.
	scansBefore = expTableDirScans.Value()
	headersBefore = expTableHeaderReads.Value()
	loadsBefore := expTableDiskLoads.Value()
	sub := sets[41].Clone()
	sub.Nodes = sub.Nodes[:3]
	want, err := exact.OptimalRT(sub)
	if err != nil {
		t.Fatal(err)
	}
	rt, ok := c.lookupSetAny(sub)
	if !ok || rt != want {
		t.Fatalf("covering lookup = (%d, %v), want (%d, true)", rt, ok, want)
	}
	if got := expTableDirScans.Value() - scansBefore; got != 0 {
		t.Errorf("covering lookup did %d directory scans, want 0", got)
	}
	if got := expTableHeaderReads.Value() - headersBefore; got != 0 {
		t.Errorf("covering lookup read %d headers, want 0", got)
	}
	// Exactly one file read: the sub-multicast's own key probes its
	// canonical path (one ENOENT open, not a load), so only the covering
	// network's file is actually read.
	if got := expTableDiskLoads.Value() - loadsBefore; got != 1 {
		t.Errorf("covering lookup read %d table files, want 1", got)
	}

	// Repeat lookups are served by the promoted in-memory table: zero
	// further disk activity of any kind.
	loadsBefore = expTableDiskLoads.Value()
	if rt, ok := c.lookupSetAny(sub); !ok || rt != want {
		t.Fatalf("repeat covering lookup = (%d, %v)", rt, ok)
	}
	if got := expTableDiskLoads.Value() - loadsBefore; got != 0 {
		t.Errorf("repeat lookup attempted %d disk loads, want 0", got)
	}
}

// TestFlatSpillMigration: table files of format version 1 — every file
// the old flat layout (<table-dir>/<hash16>.hnowtbl) ever held, and any
// sharded file written before the format dropped its choice array — are
// never served. With one such file at the top level and one at the
// network's sharded path, the startup index holds neither, the network is
// built exactly once, the rebuild overwrites the sharded file in the
// current format, and a restarted cache serves it from disk.
func TestFlatSpillMigration(t *testing.T) {
	dir := t.TempDir()
	set := Canonicalize(spillSet(t, 7))
	inst, err := exact.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	table, err := exact.BuildTable(set)
	if err != nil {
		t.Fatal(err)
	}
	v1 := formatV1Bytes(t, table)
	rel := TableFileName(table)
	flat := filepath.Join(dir, strings.ReplaceAll(rel, string(filepath.Separator), ""))
	sharded := filepath.Join(dir, rel)
	if err := os.MkdirAll(filepath.Dir(sharded), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{flat, sharded} {
		if err := os.WriteFile(path, v1, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c := newTableCache(0, dir)
	if got := c.index.size(); got != 0 {
		t.Fatalf("index holds %d networks from version-1 files, want 0", got)
	}
	if rt, ok := c.lookupSetAny(set); ok {
		t.Fatalf("version-1 file served a lookup (rt %d)", rt)
	}
	want, err := exact.OptimalRT(set)
	if err != nil {
		t.Fatal(err)
	}
	for round, wantSource := range []string{TableCacheMiss, TableCacheHit} {
		tab, source, _, err := c.getOrBuild(inst, 1)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := tab.Lookup(inst.SourceType, inst.Counts)
		tab.Release()
		if err != nil || rt != want || source != wantSource {
			t.Fatalf("round %d: (rt %d, source %q, err %v), want (%d, %q)", round, rt, source, err, want, wantSource)
		}
	}
	if got := c.builds.Load(); got != 1 {
		t.Errorf("network built %d times, want 1", got)
	}
	if _, err := exact.ReadTableFile(sharded); err != nil {
		t.Errorf("rebuild left the sharded file unreadable: %v", err)
	}

	restarted := newTableCache(0, dir)
	if got := restarted.index.size(); got != 1 {
		t.Fatalf("restarted index holds %d networks, want 1 (the rebuilt sharded file)", got)
	}
	if rt, ok := restarted.lookupSetAny(set); !ok || rt != want {
		t.Fatalf("restarted lookup = (%d, %v), want (%d, true)", rt, ok, want)
	}
	if got := restarted.builds.Load(); got != 0 {
		t.Errorf("restarted cache built %d tables, want 0", got)
	}
}

// formatV1Bytes re-encodes a table in table format version 1: the
// current header and values with the version field set to 1, followed by
// a (zeroed) choice array as long as the values, checksummed.
func formatV1Bytes(t *testing.T, table *exact.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := table.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := append(buf.Bytes(), make([]byte, 8*table.States())...)
	binary.LittleEndian.PutUint32(data[8:], 1)
	binary.LittleEndian.PutUint32(data[12:], crc32.Checksum(data[16:], crc32.MakeTable(crc32.Castagnoli)))
	return data
}

// TestSpillIndexStartupReconcile is the crash-consistency test: a table
// file written without the index hearing about it (crash between the
// file write and the index update) must be picked up by the next
// startup's rescan.
func TestSpillIndexStartupReconcile(t *testing.T) {
	dir := t.TempDir()
	// A running cache with an empty dir: its index knows nothing.
	running := newTableCache(0, dir)
	if got := running.index.size(); got != 0 {
		t.Fatalf("fresh index holds %d entries", got)
	}

	// Simulate the crash window: the file lands on disk out-of-band.
	set := Canonicalize(spillSet(t, 11))
	table, err := exact.BuildTable(set)
	if err != nil {
		t.Fatal(err)
	}
	path, err := SpillPath(dir, table)
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.WriteTableFile(path, table); err != nil {
		t.Fatal(err)
	}

	// "Restart": the startup rescan reconciles index and directory.
	restarted := newTableCache(0, dir)
	if got := restarted.index.size(); got != 1 {
		t.Fatalf("restarted index holds %d networks, want 1", got)
	}
	want, err := exact.OptimalRT(set)
	if err != nil {
		t.Fatal(err)
	}
	sub := set.Clone()
	sub.Nodes = sub.Nodes[:len(sub.Nodes)-1]
	if rt, ok := restarted.lookupSetAny(set); !ok || rt != want {
		t.Errorf("reconciled lookup = (%d, %v), want (%d, true)", rt, ok, want)
	}
	if _, ok := restarted.lookupSetAny(sub); !ok {
		t.Error("reconciled index does not cover a sub-multicast")
	}
}

// TestSpillIndexDropsBrokenFile: a file that fails its full validation
// is removed from the index, so later misses do not re-read it.
func TestSpillIndexDropsBrokenFile(t *testing.T) {
	dir := t.TempDir()
	set := fillSpillDir(t, dir, 1)[0]
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.hnowtbl"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("spill: %v %v", matches, err)
	}
	// Corrupt the payload but keep the header intact, so the startup
	// header scan still indexes it and only the full load can reject it.
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	c := newTableCache(0, dir)
	if got := c.index.size(); got != 1 {
		t.Fatalf("index holds %d networks, want 1 (header is intact)", got)
	}
	if _, ok := c.lookupSetAny(set); ok {
		t.Fatal("corrupt table answered a lookup")
	}
	if got := c.index.size(); got != 0 {
		t.Errorf("broken file still indexed (%d entries)", got)
	}
	// Covering queries no longer route to the broken file: a
	// sub-multicast retry does no directory scan and reads no file (its
	// own key's canonical-path probe is ENOENT).
	sub := set.Clone()
	sub.Nodes = sub.Nodes[:3]
	loadsBefore := expTableDiskLoads.Value()
	scansBefore := expTableDirScans.Value()
	if _, ok := c.lookupSetAny(sub); ok {
		t.Fatal("corrupt table answered a covering retry")
	}
	if got := expTableDiskLoads.Value() - loadsBefore; got != 0 {
		t.Errorf("covering retry read %d table files, want 0", got)
	}
	if got := expTableDirScans.Value() - scansBefore; got != 0 {
		t.Errorf("covering retry did %d directory scans, want 0", got)
	}
}

// TestSpillPickedUpWhileRunning: a table written into a live daemon's
// spill dir under its canonical path (hnowtable -save against a running
// daemon's -table-dir) is found by the exact-key probe and indexed, no
// restart needed.
func TestSpillPickedUpWhileRunning(t *testing.T) {
	dir := t.TempDir()
	c := newTableCache(0, dir) // startup scan of an empty dir
	set := Canonicalize(spillSet(t, 23))
	table, err := exact.BuildTable(set)
	if err != nil {
		t.Fatal(err)
	}
	path, err := SpillPath(dir, table)
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.WriteTableFile(path, table); err != nil {
		t.Fatal(err)
	}
	want, err := exact.OptimalRT(set)
	if err != nil {
		t.Fatal(err)
	}
	buildsBefore := expTableBuilds.Value()
	if rt, ok := c.lookupSetAny(set); !ok || rt != want {
		t.Fatalf("live drop-in lookup = (%d, %v), want (%d, true)", rt, ok, want)
	}
	if got := expTableBuilds.Value() - buildsBefore; got != 0 {
		t.Errorf("live drop-in triggered %d DP builds, want 0", got)
	}
	if got := c.index.size(); got != 1 {
		t.Errorf("probed table not indexed (%d entries)", got)
	}
	// Once indexed, even covering queries (sub-multicasts) see it.
	sub := set.Clone()
	sub.Nodes = sub.Nodes[:3]
	if _, ok := c.lookupSetAny(sub); !ok {
		t.Error("covering query does not see the drop-in table")
	}
}

// TestLoadKeepsIndexOnTransientError: only validation failures evict an
// index entry; an unreadable-but-intact file (e.g. fd pressure,
// permissions) stays routed so it is retried once the condition clears.
func TestLoadKeepsIndexOnTransientError(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("permission-based transient errors do not apply to root")
	}
	dir := t.TempDir()
	set := fillSpillDir(t, dir, 1)[0]
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.hnowtbl"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("spill: %v %v", matches, err)
	}
	c := newTableCache(0, dir)
	if err := os.Chmod(matches[0], 0o000); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(matches[0], 0o644)
	if _, ok := c.lookupSetAny(set); ok {
		t.Fatal("unreadable table answered a lookup")
	}
	if got := c.index.size(); got != 1 {
		t.Fatalf("transient open failure evicted the index entry (%d left)", got)
	}
	// Condition clears: the very next lookup succeeds with no rescan.
	if err := os.Chmod(matches[0], 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := exact.OptimalRT(set)
	if err != nil {
		t.Fatal(err)
	}
	if rt, ok := c.lookupSetAny(set); !ok || rt != want {
		t.Errorf("post-recovery lookup = (%d, %v), want (%d, true)", rt, ok, want)
	}
}

// TestEvictionUnmapRaceUnderLookups is the -race acceptance test for the
// refcounted unmap: tables evicted from a byte-budget cache while
// lookups on them are in flight must never fault or race. The budget
// admits roughly one table, so every alternating load evicts the other.
func TestEvictionUnmapRaceUnderLookups(t *testing.T) {
	dir := t.TempDir()
	sets := fillSpillDir(t, dir, 4)
	// Budget of one table: every load of a different network evicts.
	one, err := exact.BuildTable(sets[0])
	if err != nil {
		t.Fatal(err)
	}
	c := newTableCache(one.SizeBytes(), dir)

	wants := make([]int64, len(sets))
	for i, set := range sets {
		if wants[i], err = exact.OptimalRT(set); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				j := (w + i) % len(sets)
				rt, ok := c.lookupSetAny(sets[j])
				if !ok || rt != wants[j] {
					t.Errorf("lookup %d = (%d, %v), want (%d, true)", j, rt, ok, wants[j])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(c.entries) == 0 {
		t.Error("cache empty after churn")
	}
}
