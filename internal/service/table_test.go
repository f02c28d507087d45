package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/model"
)

// put inserts a table built outside resolve.
func (c *tableCache) put(key string, t *exact.Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, t)
}

func tableTestSet(t *testing.T) *model.MulticastSet {
	t.Helper()
	fast := model.Node{Send: 1, Recv: 1}
	slow := model.Node{Send: 2, Recv: 3}
	set, err := model.NewMulticastSet(1, slow, fast, fast, fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestTableEndpointBuildAndHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	set := tableTestSet(t)

	resp, body := post(t, ts.URL+"/v1/table", TableRequest{Set: rawSet(t, set), Parallelism: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: HTTP %d: %s", resp.StatusCode, body)
	}
	var r1 TableResponse
	if err := json.Unmarshal(body, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Cache != "miss" {
		t.Errorf("first build reported cache %q", r1.Cache)
	}
	if r1.K != 2 || r1.OptimalRT != 8 {
		t.Errorf("table response k=%d optimal=%d, want k=2 optimal=8", r1.K, r1.OptimalRT)
	}
	if r1.States <= 0 {
		t.Errorf("states = %d", r1.States)
	}

	// Same network, destinations permuted: must hit the cached table.
	permuted := set.Clone()
	permuted.Nodes[1], permuted.Nodes[4] = permuted.Nodes[4], permuted.Nodes[1]
	resp, body = post(t, ts.URL+"/v1/table", TableRequest{Set: rawSet(t, permuted)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: HTTP %d: %s", resp.StatusCode, body)
	}
	var r2 TableResponse
	if err := json.Unmarshal(body, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Cache != "hit" {
		t.Errorf("permuted request reported cache %q, want hit", r2.Cache)
	}
	if r2.Key != r1.Key || r2.OptimalRT != r1.OptimalRT {
		t.Errorf("permuted response differs: %+v vs %+v", r2, r1)
	}
}

func TestTableEndpointRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts.URL+"/v1/table", TableRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing set: HTTP %d", resp.StatusCode)
	}
	bad := json.RawMessage(`{"latency": 0, "nodes": [{"send":1,"recv":1}]}`)
	resp, _ = post(t, ts.URL+"/v1/table", TableRequest{Set: bad})
	if resp.StatusCode == http.StatusOK {
		t.Error("invalid latency accepted")
	}
}

func TestCompareUsesWarmTable(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	set := tableTestSet(t)

	// Warm the network table, then compare a sub-multicast of the same
	// network: the exact optimum must come from the table (constant-time),
	// not a fresh DP.
	resp, body := post(t, ts.URL+"/v1/table", TableRequest{Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: HTTP %d: %s", resp.StatusCode, body)
	}
	sub := set.Clone()
	sub.Nodes = sub.Nodes[:3] // source + two fast destinations
	resp, body = post(t, ts.URL+"/v1/compare", CompareRequest{Set: rawSet(t, sub), Optimal: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare: HTTP %d: %s", resp.StatusCode, body)
	}
	var cr CompareResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Optimal == nil {
		t.Fatal("compare omitted the optimal value")
	}
	want, err := exact.OptimalRT(Canonicalize(sub))
	if err != nil {
		t.Fatal(err)
	}
	if *cr.Optimal != want {
		t.Errorf("optimal = %d, want %d", *cr.Optimal, want)
	}
	if got, ok := svc.tables.lookupSet(Canonicalize(sub)); !ok || got != want {
		t.Errorf("warm table lookup = (%d, %v), want (%d, true)", got, ok, want)
	}
}

func TestTableCacheByteBudgetEviction(t *testing.T) {
	mk := func(latency int64) *exact.Table {
		set, err := model.NewMulticastSet(latency, model.Node{Send: 1, Recv: 1}, model.Node{Send: 1, Recv: 1})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := exact.BuildTable(set)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	// Same geometry for every table, so the budget admits exactly two.
	size := mk(9).SizeBytes()
	c := newTableCache(2*size, "")
	get := func(key string) bool {
		tab, _, err := c.resolve(key, nil)
		if err == nil {
			tab.Release()
		}
		return err == nil
	}
	c.put("a", mk(1))
	c.put("b", mk(2))
	if c.bytes != 2*size {
		t.Fatalf("cache accounts %d bytes, want %d", c.bytes, 2*size)
	}
	if !get("a") {
		t.Fatal("a evicted prematurely")
	}
	c.put("c", mk(3)) // over budget: evicts b (least recently used after the get of a)
	if get("b") {
		t.Error("b not evicted")
	}
	if !get("a") {
		t.Error("a lost")
	}
	if !get("c") {
		t.Error("c lost")
	}
	if c.bytes != 2*size {
		t.Errorf("cache accounts %d bytes after eviction, want %d", c.bytes, 2*size)
	}
	// A table bigger than the whole budget is still admitted (alone):
	// the newest entry never self-evicts.
	tiny := newTableCache(1, "")
	tiny.put("big", mk(4))
	if tab, _, err := tiny.resolve("big", nil); err != nil {
		t.Error("oversized table not admitted")
	} else {
		tab.Release()
	}
	if len(tiny.entries) != 1 {
		t.Errorf("tiny cache holds %d entries, want 1", len(tiny.entries))
	}
}

func TestTableConcurrentWarmBuildsOnce(t *testing.T) {
	c := newTableCache(0, "")
	set, err := model.NewMulticastSet(1,
		model.Node{Send: 2, Recv: 3},
		model.Node{Send: 1, Recv: 1}, model.Node{Send: 1, Recv: 1}, model.Node{Send: 2, Recv: 3})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := exact.Analyze(Canonicalize(set))
	if err != nil {
		t.Fatal(err)
	}
	before := expTableBuilds.Value()
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab, source, _, err := c.getOrBuild(inst, 2)
			if err != nil {
				t.Error(err)
				return
			}
			if tab == nil {
				t.Error("nil table")
			} else {
				tab.Release()
			}
			if source == TableCacheHit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := expTableBuilds.Value() - before; got != 1 {
		t.Errorf("concurrent warms built %d tables, want 1", got)
	}
	if hits.Load() != 7 {
		t.Errorf("%d of 8 warms were hits, want 7", hits.Load())
	}
	if len(c.entries) != 1 {
		t.Errorf("cache holds %d entries, want 1", len(c.entries))
	}
}

// TestTableDirRestartServesFromDisk is the persistence acceptance test:
// a table built via POST /v1/table on one daemon must, after that daemon
// is gone, answer the first /v1/compare of a daemon restarted with the
// same -table-dir from disk — the expvar disk-hit counter moves, no DP
// build happens, and the optimum is identical.
func TestTableDirRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	set := tableTestSet(t)

	// First daemon lifecycle: build, spill, shut down.
	writesBefore := expTableDiskWrites.Value()
	svc1 := New(Config{TableDir: dir})
	ts1 := httptest.NewServer(svc1.Handler())
	resp, body := post(t, ts1.URL+"/v1/table", TableRequest{Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: HTTP %d: %s", resp.StatusCode, body)
	}
	var built TableResponse
	if err := json.Unmarshal(body, &built); err != nil {
		t.Fatal(err)
	}
	if built.Cache != TableCacheMiss {
		t.Fatalf("first build reported cache %q, want %q", built.Cache, TableCacheMiss)
	}
	ts1.Close()
	svc1.Close()
	if got := expTableDiskWrites.Value(); got != writesBefore+1 {
		t.Fatalf("disk writes moved by %d, want 1", got-writesBefore)
	}
	// The spill is sharded: one two-hex-digit shard directory holding the
	// table file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() || len(entries[0].Name()) != 2 {
		t.Fatalf("spill dir holds %v, want one shard subdirectory", entries)
	}
	shard, err := os.ReadDir(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if len(shard) != 1 || filepath.Ext(shard[0].Name()) != ".hnowtbl" {
		t.Fatalf("shard holds %v, want one .hnowtbl file", shard)
	}

	// Restarted daemon, same -table-dir: the first /v1/compare optimal
	// lookup must come from the persisted table, not a DP refill.
	svc2 := New(Config{TableDir: dir})
	ts2 := httptest.NewServer(svc2.Handler())
	defer func() {
		ts2.Close()
		svc2.Close()
	}()
	buildsBefore := expTableBuilds.Value()
	diskBefore := expTableDiskHits.Value()
	resp, body = post(t, ts2.URL+"/v1/compare", CompareRequest{Set: rawSet(t, set), Optimal: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare after restart: HTTP %d: %s", resp.StatusCode, body)
	}
	var cr CompareResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Optimal == nil || *cr.Optimal != built.OptimalRT {
		t.Fatalf("post-restart optimal = %v, want %d", cr.Optimal, built.OptimalRT)
	}
	if got := expTableDiskHits.Value(); got != diskBefore+1 {
		t.Errorf("disk hits moved by %d, want 1", got-diskBefore)
	}
	if got := expTableBuilds.Value(); got != buildsBefore {
		t.Errorf("restart triggered %d DP builds, want 0", got-buildsBefore)
	}

	// A restarted daemon must also cover sub-multicasts of the spilled
	// network from disk (the header-scan path): a strict subset has a
	// different network key, so only coverage can find the file.
	svc2b := New(Config{TableDir: dir})
	ts2b := httptest.NewServer(svc2b.Handler())
	defer func() {
		ts2b.Close()
		svc2b.Close()
	}()
	sub := set.Clone()
	sub.Nodes = sub.Nodes[:3] // source + two fast destinations
	subBuilds := expTableBuilds.Value()
	subDisk := expTableDiskHits.Value()
	resp, body = post(t, ts2b.URL+"/v1/compare", CompareRequest{Set: rawSet(t, sub), Optimal: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sub-multicast compare after restart: HTTP %d: %s", resp.StatusCode, body)
	}
	var subCR CompareResponse
	if err := json.Unmarshal(body, &subCR); err != nil {
		t.Fatal(err)
	}
	subWant, err := exact.OptimalRT(Canonicalize(sub))
	if err != nil {
		t.Fatal(err)
	}
	if subCR.Optimal == nil || *subCR.Optimal != subWant {
		t.Fatalf("post-restart sub-multicast optimal = %v, want %d", subCR.Optimal, subWant)
	}
	// The proof it came off disk: the covering scan loaded the file (one
	// disk hit) and no table build happened (OptimalRT's one-off DP
	// fallback would move neither counter, so also check the promoted
	// table now answers in memory).
	if got := expTableDiskHits.Value(); got != subDisk+1 {
		t.Errorf("sub-multicast compare moved disk hits by %d, want 1", got-subDisk)
	}
	if got := expTableBuilds.Value(); got != subBuilds {
		t.Errorf("sub-multicast compare after restart triggered %d DP builds, want 0", got-subBuilds)
	}
	if rt, ok := svc2b.tables.lookupSet(Canonicalize(sub)); !ok || rt != subWant {
		t.Errorf("covering table not promoted: lookupSet = (%d, %v), want (%d, true)", rt, ok, subWant)
	}

	// The loaded table was promoted into memory: a warm request is now an
	// ordinary in-memory hit with the original key and optimum.
	resp, body = post(t, ts2.URL+"/v1/table", TableRequest{Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-warm: HTTP %d: %s", resp.StatusCode, body)
	}
	var rewarmed TableResponse
	if err := json.Unmarshal(body, &rewarmed); err != nil {
		t.Fatal(err)
	}
	if rewarmed.Cache != TableCacheHit || rewarmed.Key != built.Key || rewarmed.OptimalRT != built.OptimalRT {
		t.Errorf("re-warm after disk promotion: %+v, want in-memory hit of %+v", rewarmed, built)
	}

	// A third daemon warming via /v1/table (no prior compare) reports the
	// disk source explicitly.
	svc3 := New(Config{TableDir: dir})
	ts3 := httptest.NewServer(svc3.Handler())
	defer func() {
		ts3.Close()
		svc3.Close()
	}()
	resp, body = post(t, ts3.URL+"/v1/table", TableRequest{Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disk warm: HTTP %d: %s", resp.StatusCode, body)
	}
	var fromDisk TableResponse
	if err := json.Unmarshal(body, &fromDisk); err != nil {
		t.Fatal(err)
	}
	if !fromDisk.FromDisk() || fromDisk.OptimalRT != built.OptimalRT || fromDisk.BuildMillis != 0 {
		t.Errorf("warm on third daemon: %+v, want cache=disk with optimal %d", fromDisk, built.OptimalRT)
	}
}

// TestTableDirIgnoresCorruptSpill ensures a damaged spill file degrades
// to a rebuild (counted as a disk error), never a bad answer.
func TestTableDirIgnoresCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	set := tableTestSet(t)
	svc1 := New(Config{TableDir: dir})
	ts1 := httptest.NewServer(svc1.Handler())
	resp, body := post(t, ts1.URL+"/v1/table", TableRequest{Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: HTTP %d: %s", resp.StatusCode, body)
	}
	var built TableResponse
	if err := json.Unmarshal(body, &built); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	svc1.Close()

	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.hnowtbl"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("spill dir: %v, %v", matches, err)
	}
	path := matches[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	errsBefore := expTableDiskErrors.Value()
	svc2 := New(Config{TableDir: dir})
	ts2 := httptest.NewServer(svc2.Handler())
	defer func() {
		ts2.Close()
		svc2.Close()
	}()
	resp, body = post(t, ts2.URL+"/v1/table", TableRequest{Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm over corrupt spill: HTTP %d: %s", resp.StatusCode, body)
	}
	var rebuilt TableResponse
	if err := json.Unmarshal(body, &rebuilt); err != nil {
		t.Fatal(err)
	}
	if rebuilt.Cache != TableCacheMiss || rebuilt.OptimalRT != built.OptimalRT {
		t.Errorf("corrupt spill answered %+v, want a fresh build with optimal %d", rebuilt, built.OptimalRT)
	}
	if expTableDiskErrors.Value() == errsBefore {
		t.Error("corrupt spill not counted as a disk error")
	}
}

// TestCompareOptimalColdSingleFlight: with no warm table covering the
// network, concurrent /v1/compare {optimal:true} requests for the same
// instance must build ONE table, not one per request, and a repeat is
// answered from that table without any build.
func TestCompareOptimalColdSingleFlight(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	set := tableTestSet(t)
	want, err := exact.OptimalRT(Canonicalize(set))
	if err != nil {
		t.Fatal(err)
	}
	const concurrent = 8
	var wg sync.WaitGroup
	optima := make([]int64, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/compare", CompareRequest{Set: rawSet(t, set), Optimal: true})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("compare %d: HTTP %d: %s", i, resp.StatusCode, body)
				return
			}
			var cr CompareResponse
			if err := json.Unmarshal(body, &cr); err != nil {
				t.Error(err)
				return
			}
			if cr.Optimal == nil {
				t.Errorf("compare %d omitted the optimal", i)
				return
			}
			optima[i] = *cr.Optimal
		}(i)
	}
	wg.Wait()
	if got := svc.TableBuilds(); got != 1 {
		t.Errorf("%d concurrent cold compares ran %d table builds, want 1", concurrent, got)
	}
	for i, got := range optima {
		if got != want {
			t.Errorf("compare %d optimal = %d, want %d", i, got, want)
		}
	}

	// A later compare of the same instance is a table hit: no build.
	hitsBefore := expTableHits.Value()
	resp, body := post(t, ts.URL+"/v1/compare", CompareRequest{Set: rawSet(t, set), Optimal: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat compare: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := svc.TableBuilds(); got != 1 {
		t.Errorf("repeat compare built again: %d builds, want 1", got)
	}
	if expTableHits.Value() == hitsBefore {
		t.Error("repeat compare was not counted as a table hit")
	}
}

// TestLoadFailureSharedWithCohort pins what a cohort of concurrent
// resolves of one key shares. Every case parks its whole cohort inside
// resolve before the flight ends, so each outcome is the shared one.
func TestLoadFailureSharedWithCohort(t *testing.T) {
	inst, err := exact.Analyze(Canonicalize(tableTestSet(t)))
	if err != nil {
		t.Fatal(err)
	}
	key := networkKey(inst.Set.Latency, inst.Types, inst.Counts)
	errBoom := errors.New("boom")
	spillOnly := func(c *tableCache) func() error {
		return func() error {
			_, _, err := c.resolve(key, nil)
			return err
		}
	}
	cases := []struct {
		name string
		// spill seeds the cache's dir with a spilled table for key whose
		// payload is corrupt: the header scan indexes it, a full load
		// rejects it and counts a disk load.
		spill bool
		run   func(t *testing.T, c *tableCache)
	}{
		{"failed miss runs once, is shared and is not cached", false, func(t *testing.T, c *tableCache) {
			var calls atomic.Int64
			release := make(chan struct{})
			miss := func() (*exact.Table, string, error) {
				calls.Add(1)
				<-release
				return nil, "", errBoom
			}
			fns := make([]func() error, 6)
			for i := range fns {
				fns[i] = func() error {
					_, _, err := c.resolve(key, miss)
					return err
				}
			}
			errs := cohort(t, fns...)
			close(release)
			for _, err := range errs() {
				if !errors.Is(err, errBoom) {
					t.Errorf("waiter got %v, want the miss's error", err)
				}
			}
			if got := calls.Load(); got != 1 {
				t.Errorf("miss ran %d times for the cohort, want 1", got)
			}
			if tab, _, err := c.resolve(key, nil); err == nil {
				tab.Release()
				t.Error("a failed miss left a table in the cache")
			}
			if _, _, err := c.resolve(key, miss); !errors.Is(err, errBoom) || calls.Load() != 2 {
				t.Errorf("next resolve: err %v after %d miss calls, want the miss run again", err, calls.Load())
			}
		}},
		{"negative spill probe is shared with spill-only waiters", true, func(t *testing.T, c *tableCache) {
			fns := make([]func() error, 6)
			for i := range fns {
				fns[i] = spillOnly(c)
			}
			negative := handFlight(c, key)
			errs := cohort(t, fns...)
			loadsBefore := expTableDiskLoads.Value()
			negative()
			for _, err := range errs() {
				if !errors.Is(err, errNoTable) {
					t.Errorf("spill-only waiter got %v, want errNoTable", err)
				}
			}
			if got := expTableDiskLoads.Value() - loadsBefore; got != 0 {
				t.Errorf("cohort waiters did %d disk loads after the shared probe, want 0", got)
			}
		}},
		{"waiter with a miss retries a negative spill probe", false, func(t *testing.T, c *tableCache) {
			var source string
			build := func() error {
				tab, src, _, err := c.getOrBuild(inst, 1)
				if err == nil {
					tab.Release()
				}
				source = src
				return err
			}
			negative := handFlight(c, key)
			errs := cohort(t, build, spillOnly(c))
			before := c.builds.Load()
			negative()
			got := errs()
			if got[0] != nil || source != TableCacheMiss {
				t.Errorf("producing waiter: source %q, err %v; want a build", source, got[0])
			}
			if !errors.Is(got[1], errNoTable) {
				t.Errorf("spill-only waiter got %v, want errNoTable", got[1])
			}
			if n := c.builds.Load() - before; n != 1 {
				t.Errorf("producing waiter built %d tables, want 1", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := ""
			if tc.spill {
				dir = t.TempDir()
				corruptSpill(t, dir, inst)
			}
			tc.run(t, newTableCache(0, dir))
		})
	}
}

// corruptSpill spills the table for inst into dir, then flips the last
// payload byte of the file.
func corruptSpill(t *testing.T, dir string, inst *exact.Instance) {
	t.Helper()
	tab, _, _, err := newTableCache(0, dir).getOrBuild(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab.Release()
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.hnowtbl"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("spill: %v %v", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// handFlight registers a flight for key as if a spill-only resolve were
// probing the spill, and returns the function that ends it negative.
func handFlight(c *tableCache, key string) (negative func()) {
	fl := &tableFlight{done: make(chan struct{})}
	c.mu.Lock()
	c.inflight[key] = fl
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		fl.err = errNoTable
		delete(c.inflight, key)
		c.mu.Unlock()
		close(fl.done)
	}
}

// cohort runs each fn on its own goroutine and waits until all of them
// are blocked on a channel inside resolve: parked on a flight, or
// holding one open in a miss the test controls. The returned function
// waits for the cohort and returns its errors in fns order.
func cohort(t *testing.T, fns ...func() error) func() []error {
	t.Helper()
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn()
		}()
	}
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, "(*tableCache).resolve(") {
				parked++
			}
		}
		if parked >= len(fns) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d cohort goroutines parked in resolve", parked, len(fns))
		}
	}
	return func() []error {
		wg.Wait()
		return errs
	}
}

func TestNetworkKeySourceTypeInvariant(t *testing.T) {
	// The same inventory multicast from differently-typed sources must
	// share one table.
	fast := model.Node{Send: 1, Recv: 1}
	slow := model.Node{Send: 2, Recv: 3}
	a, err := model.NewMulticastSet(1, slow, fast, fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := model.NewMulticastSet(1, fast, fast, fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	ia, err := exact.Analyze(Canonicalize(a))
	if err != nil {
		t.Fatal(err)
	}
	ib, err := exact.Analyze(Canonicalize(b))
	if err != nil {
		t.Fatal(err)
	}
	ka := networkKey(ia.Set.Latency, ia.Types, ia.Counts)
	kb := networkKey(ib.Set.Latency, ib.Types, ib.Counts)
	if ka != kb {
		t.Errorf("keys differ for source-type variants:\n  %s\n  %s", ka, kb)
	}
}
