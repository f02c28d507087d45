package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/model"
	"repro/internal/trace"
)

// fillBuildSem takes every build slot of the server's table cache and
// returns the function that gives them back.
func fillBuildSem(svc *Server) (drain func()) {
	for i := 0; i < cap(svc.tables.buildSem); i++ {
		svc.tables.buildSem <- struct{}{}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := 0; i < cap(svc.tables.buildSem); i++ {
				<-svc.tables.buildSem
			}
		})
	}
}

// waitInflight polls until n table resolves are in flight on svc.
func waitInflight(t *testing.T, svc *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		svc.tables.mu.Lock()
		got := len(svc.tables.inflight)
		svc.tables.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("fewer than %d table resolves in flight after 10s", n)
}

// scheduleOptimal posts an "optimal" schedule request and returns the
// response with its schedule compacted.
func scheduleOptimal(t *testing.T, url, algo string, set *model.MulticastSet) ScheduleResponse {
	t.Helper()
	resp, body := post(t, url+"/v1/schedule", ScheduleRequest{Algo: algo, Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s schedule: HTTP %d: %s", algo, resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	sr.Schedule = compactJSON(t, sr.Schedule)
	return sr
}

func compactJSON(t *testing.T, js []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, js); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOptimalWaitsForBuildSlot: an "optimal" /v1/schedule and an
// "optimal" /v1/compare fill their tables under the build semaphore, so
// with every slot taken both wait, and both finish once it drains.
func TestOptimalWaitsForBuildSlot(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	drain := fillBuildSem(svc)
	defer drain()

	schedSet, cmpSet := fleetSet(t, 1), fleetSet(t, 2)
	type result struct {
		path   string
		status int
		body   []byte
	}
	done := make(chan result, 2)
	go func() {
		resp, body := post(t, ts.URL+"/v1/schedule", ScheduleRequest{Algo: "optimal", Set: rawSet(t, schedSet)})
		done <- result{"/v1/schedule", resp.StatusCode, body}
	}()
	go func() {
		resp, body := post(t, ts.URL+"/v1/compare", CompareRequest{Set: rawSet(t, cmpSet), Optimal: true})
		done <- result{"/v1/compare", resp.StatusCode, body}
	}()
	waitInflight(t, svc, 2)
	select {
	case r := <-done:
		t.Fatalf("%s answered HTTP %d with every build slot taken", r.path, r.status)
	case <-time.After(100 * time.Millisecond):
	}
	if n := svc.TableBuilds(); n != 0 {
		t.Fatalf("%d builds ran with every build slot taken", n)
	}

	drain()
	for i := 0; i < 2; i++ {
		r := <-done
		if r.status != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", r.path, r.status, r.body)
		}
		if r.path == "/v1/compare" {
			var cr CompareResponse
			if err := json.Unmarshal(r.body, &cr); err != nil {
				t.Fatal(err)
			}
			want, err := exact.OptimalRT(Canonicalize(cmpSet))
			if err != nil {
				t.Fatal(err)
			}
			if cr.Optimal == nil || *cr.Optimal != want {
				t.Errorf("compare optimal = %v, want %d", cr.Optimal, want)
			}
		}
	}
	if n := svc.TableBuilds(); n != 2 {
		t.Errorf("%d builds for two networks, want 2", n)
	}
}

// TestOptimalScheduleSingleBuildPerKey: concurrent "optimal" schedules
// share one table build per network.
func TestOptimalScheduleSingleBuildPerKey(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	fire := func(sets []*model.MulticastSet, perSet int) {
		var wg sync.WaitGroup
		for _, set := range sets {
			for i := 0; i < perSet; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, body := post(t, ts.URL+"/v1/schedule", ScheduleRequest{Algo: "optimal", Set: rawSet(t, set)})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("schedule: HTTP %d: %s", resp.StatusCode, body)
					}
				}()
			}
		}
		wg.Wait()
	}

	fire([]*model.MulticastSet{fleetSet(t, 10)}, 8)
	if n := svc.TableBuilds(); n != 1 {
		t.Errorf("8 concurrent schedules of one network ran %d builds, want 1", n)
	}
	distinct := []*model.MulticastSet{fleetSet(t, 11), fleetSet(t, 12), fleetSet(t, 13), fleetSet(t, 14)}
	keys := map[string]bool{}
	for _, set := range distinct {
		key, err := NetworkKey(set)
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = true
	}
	if len(keys) != len(distinct) {
		t.Fatalf("generated networks share keys: %d distinct of %d", len(keys), len(distinct))
	}
	fire(distinct, 2)
	if n := svc.TableBuilds() - 1; n != 4 {
		t.Errorf("4 distinct networks ran %d builds, want 4", n)
	}
}

// TestOptimalTreeCanonicalAcrossSources: the "optimal" schedule is the
// one canonical tree whichever tier served its table: a cold build, a
// memory hit, the spill after a restart, a peer's table, and a direct
// exact.Schedule all give byte-identical schedule JSON.
func TestOptimalTreeCanonicalAcrossSources(t *testing.T) {
	set := fleetSet(t, 21)
	sch, err := exact.Schedule(Canonicalize(set))
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.MarshalTimes(sch, &model.Times{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(source string, got []byte) {
		t.Helper()
		if !bytes.Equal(compactJSON(t, got), compactJSON(t, want)) {
			t.Errorf("%s schedule differs from exact.Schedule:\n got %s\nwant %s", source, got, want)
		}
	}

	dir := t.TempDir()
	svc, ts := newTestServer(t, Config{TableDir: dir})
	check("cold build", scheduleOptimal(t, ts.URL, "optimal", set).Schedule)
	// The alias has its own plan-cache key, so it reaches the table again.
	hit := scheduleOptimal(t, ts.URL, "dp-optimal", set)
	if hit.Cache != "miss" {
		t.Fatalf("dp-optimal alias was a plan-cache %s, want miss", hit.Cache)
	}
	check("memory hit", hit.Schedule)
	if n := svc.TableBuilds(); n != 1 {
		t.Errorf("cold build then memory hit ran %d builds, want 1", n)
	}
	ts.Close() // closing twice, here and at cleanup, is harmless
	svc.Close()

	restarted, rts := newTestServer(t, Config{TableDir: dir})
	diskHits := expTableDiskHits.Value()
	check("disk", scheduleOptimal(t, rts.URL, "optimal", set).Schedule)
	if n := restarted.TableBuilds(); n != 0 || expTableDiskHits.Value() == diskHits {
		t.Errorf("restart ran %d builds and %d disk hits, want 0 builds and a disk hit",
			n, expTableDiskHits.Value()-diskHits)
	}
	rts.Close()
	restarted.Close()

	f := startFleet(t, 2, nil)
	other := 1 - f.ownerIndex(t, set)
	if got := warmTable(t, f.urls[other], set); got.Cache != TableCachePeer {
		t.Fatalf("non-owner warm: cache=%q, want peer", got.Cache)
	}
	resp, body := post(t, f.urls[other]+"/v1/render", RenderRequest{Algo: "optimal", Format: "json", Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render: HTTP %d: %s", resp.StatusCode, body)
	}
	check("peer", body)
	if n := f.svcs[other].TableBuilds(); n != 0 {
		t.Errorf("non-owner ran %d builds, want 0", n)
	}
}

// TestSweepHoldsBuildSemaphore: a base sweep naming "optimal" fills its
// DPs under the table cache's build semaphore, and its results keep the
// solver's own name.
func TestSweepHoldsBuildSemaphore(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	drain := fillBuildSem(svc)
	defer drain()

	resp, body := post(t, ts.URL+"/v1/sweeps", SweepRequest{Trials: 1, N: 6, K: 2, Seed: 3, Schedulers: []string{"optimal"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if got, _ := svc.jobs.get(job.ID); got.Status != JobRunning {
		t.Fatalf("sweep finished (%s) with every build slot taken", got.Status)
	}

	drain()
	got := waitJob(t, svc, job.ID)
	if got.Status != JobDone {
		t.Fatalf("sweep ended %s: %s", got.Status, got.Error)
	}
	name := exact.Solver{}.Name()
	if s, ok := got.Result.Summaries[name]; !ok || s.N != 1 {
		t.Errorf("summaries %+v, want one trial under %q", got.Result.Summaries, name)
	}
}

// TestUnknownRequestFieldRejected: every JSON endpoint answers a
// misspelt field with a 400 naming it, instead of ignoring it.
func TestUnknownRequestFieldRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	set := string(rawSet(t, tableTestSet(t)))
	for path, body := range map[string]string{
		"/v1/schedule": `{"algorithm":"dp-optimal","set":` + set + `}`,
		"/v1/compare":  `{"algorithm":"dp-optimal","set":` + set + `}`,
		"/v1/render":   `{"algorithm":"dp-optimal","set":` + set + `}`,
		"/v1/table":    `{"algorithm":"dp-optimal","set":` + set + `}`,
		"/v1/sweeps":   `{"algorithm":"dp-optimal","trials":1}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "algorithm") {
			t.Errorf("%s: HTTP %d %q, want 400 naming \"algorithm\"", path, resp.StatusCode, apiErr.Error)
		}
	}
}

// TestCloseCancelsSweepWaitingForBuildSlot: shutdown does not wait for a
// build slot; a sweep parked on the semaphore fails instead.
func TestCloseCancelsSweepWaitingForBuildSlot(t *testing.T) {
	svc := New(Config{})
	drain := fillBuildSem(svc)
	defer drain()
	job, err := svc.jobs.start(SweepRequest{Trials: 1, N: 6, K: 2, Schedulers: []string{"optimal"}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the trial park on the semaphore
	svc.Close()                       // must return with the build slots still taken
	if got, _ := svc.jobs.get(job.ID); got.Status != JobFailed {
		t.Errorf("sweep ended %s after Close, want failed", got.Status)
	}
}
