package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bounds"
	"repro/internal/lower"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func rawSet(t testing.TB, set *model.MulticastSet) json.RawMessage {
	t.Helper()
	data, err := trace.MarshalSetJSON(set)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestScheduleCacheHitOnPermutedInstance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	set := genSet(t, 12, 7)

	resp, body := post(t, ts.URL+"/v1/schedule", ScheduleRequest{Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: HTTP %d: %s", resp.StatusCode, body)
	}
	var first ScheduleResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" {
		t.Errorf("first request should miss, got %q", first.Cache)
	}

	// A destination-permuted, renamed instance must hit the same entry.
	_, body = post(t, ts.URL+"/v1/schedule", ScheduleRequest{Set: rawSet(t, permuted(set, 3))})
	var second ScheduleResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Errorf("permuted request should hit, got %q", second.Cache)
	}
	if second.Key != first.Key {
		t.Errorf("keys differ: %q vs %q", second.Key, first.Key)
	}
	if second.RT != first.RT {
		t.Errorf("RT differs across permutation: %d vs %d", second.RT, first.RT)
	}
	if !bytes.Equal(first.Schedule, second.Schedule) {
		t.Error("cached schedule JSON is not byte-identical")
	}

	// The lower bound must actually bound the reported completion time.
	if first.LowerBound <= 0 || first.LowerBound > first.RT {
		t.Errorf("lower bound %d inconsistent with RT %d", first.LowerBound, first.RT)
	}
	// The schedule must decode to a valid plan achieving the reported RT.
	sch, err := trace.UnmarshalJSON(first.Schedule)
	if err != nil {
		t.Fatalf("returned schedule does not decode: %v", err)
	}
	if got := model.RT(sch); got != first.RT {
		t.Errorf("decoded schedule RT %d != reported %d", got, first.RT)
	}
}

func TestScheduleSeedIgnoredForDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	set := genSet(t, 8, 1)
	_, body := post(t, ts.URL+"/v1/schedule", ScheduleRequest{Algo: "greedy", Seed: 1, Set: rawSet(t, set)})
	var a ScheduleResponse
	json.Unmarshal(body, &a)
	_, body = post(t, ts.URL+"/v1/schedule", ScheduleRequest{Algo: "greedy", Seed: 2, Set: rawSet(t, set)})
	var b ScheduleResponse
	json.Unmarshal(body, &b)
	if b.Cache != "hit" {
		t.Errorf("greedy with a different seed should share the cache entry, got %q", b.Cache)
	}

	// Seeded algorithms keep distinct entries per seed.
	_, body = post(t, ts.URL+"/v1/schedule", ScheduleRequest{Algo: "random", Seed: 1, Set: rawSet(t, set)})
	var c ScheduleResponse
	json.Unmarshal(body, &c)
	_, body = post(t, ts.URL+"/v1/schedule", ScheduleRequest{Algo: "random", Seed: 2, Set: rawSet(t, set)})
	var d ScheduleResponse
	json.Unmarshal(body, &d)
	if d.Cache != "miss" {
		t.Errorf("random with a new seed should miss, got %q", d.Cache)
	}
	_ = c
}

func TestScheduleErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	set := genSet(t, 4, 1)

	resp, _ := post(t, ts.URL+"/v1/schedule", ScheduleRequest{Algo: "no-such", Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown algo: HTTP %d, want 422", resp.StatusCode)
	}

	resp, _ = post(t, ts.URL+"/v1/schedule", ScheduleRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing set: HTTP %d, want 400", resp.StatusCode)
	}

	r, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: HTTP %d, want 400", r.StatusCode)
	}

	// Invalid instance (uncorrelated overheads) must be rejected.
	bad := &model.MulticastSet{Latency: 1, Nodes: []model.Node{
		{Send: 1, Recv: 1}, {Send: 2, Recv: 9}, {Send: 3, Recv: 2},
	}}
	data, _ := json.Marshal(map[string]any{"latency": bad.Latency, "nodes": []map[string]int64{
		{"send": 1, "recv": 1}, {"send": 2, "recv": 9}, {"send": 3, "recv": 2},
	}})
	resp2, err := http.Post(ts.URL+"/v1/schedule", "application/json",
		strings.NewReader(fmt.Sprintf(`{"set": %s}`, data)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid instance: HTTP %d, want 400", resp2.StatusCode)
	}
}

// TestOversizedInstanceRejected: overheads and latency of 2^61 make every
// schedule's completion time overflow int64 (and the DP saturate at its
// inf sentinel), so all three instance endpoints must refuse the set as
// invalid rather than answer 200 with a wrong time. An oversized pipeline
// segment count is refused the same way.
func TestOversizedInstanceRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const big = 1 << 61
	node := map[string]int64{"send": big, "recv": big}
	data, err := json.Marshal(map[string]any{"latency": big, "nodes": []map[string]int64{node, node, node, node}})
	if err != nil {
		t.Fatal(err)
	}
	raw := json.RawMessage(data)
	for path, body := range map[string]any{
		"/v1/schedule": ScheduleRequest{Set: raw},
		"/v1/compare":  CompareRequest{Set: raw, Optimal: true},
		"/v1/table":    TableRequest{Set: raw},
	} {
		if resp, out := post(t, ts.URL+path, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with 2^61 costs: HTTP %d, want 400 (%s)", path, resp.StatusCode, out)
		}
	}

	resp, out := post(t, ts.URL+"/v1/schedule", ScheduleRequest{
		Set: rawSet(t, genSet(t, 4, 1)), ModelParams: ModelParams{Model: "pipeline", Segments: 1 << 40},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("segments=1<<40: HTTP %d, want 400 (%s)", resp.StatusCode, out)
	}
}

// TestOversizedWANRejected: a WAN instance whose set is tiny but whose
// off-diagonal latencies are 2^62 overflows int64 on the first hop chain
// (the chain rt wrapped to 7·2^62+14 before the model bounded its
// matrix), so an explicit "lat" matrix and a "wan" generator spec that
// produce one are refused as invalid. A spec is a few bytes that expand
// to an n² matrix, so its node and type counts are capped too, and a
// max_send past MaxCost (whose type draws overflow) is refused instead
// of panicking the handler.
func TestOversizedWANRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	set, lat := overflowWAN(t)
	spec := func(w WANSpec) ModelParams { return ModelParams{Model: "wan", WAN: &w} }
	for name, mp := range map[string]ModelParams{
		"2^62 lat":        {Model: "wan", Lat: lat},
		"2^62 spec":       spec(WANSpec{Clusters: 2, NodesPerCluster: 4, LANLatency: 1, WANLatency: 1 << 62}),
		"spec nodes":      spec(WANSpec{Clusters: 1 << 20, NodesPerCluster: 1 << 20, LANLatency: 1, WANLatency: 2}),
		"spec nodes wrap": spec(WANSpec{Clusters: 1 << 62, NodesPerCluster: 4, LANLatency: 1, WANLatency: 2}),
		"spec types":      spec(WANSpec{Clusters: 2, NodesPerCluster: 2, LANLatency: 1, WANLatency: 2, K: 1 << 40}),
		"spec max send":   spec(WANSpec{Clusters: 2, NodesPerCluster: 2, LANLatency: 1, WANLatency: 2, K: 1, MaxSend: 1<<63 - 1}),
	} {
		reqSet := set
		if mp.WAN != nil {
			reqSet = nil
		}
		for path, body := range map[string]any{
			"/v1/schedule": ScheduleRequest{Set: reqSet, ModelParams: mp},
			"/v1/compare":  CompareRequest{Set: reqSet, ModelParams: mp},
		} {
			if resp, out := post(t, ts.URL+path, body); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: HTTP %d, want 400 (%s)", path, name, resp.StatusCode, out)
			}
		}
	}
}

// overflowWAN is eight unit nodes with every off-diagonal latency 2^62:
// link-model times overflow int64 unless the matrix is bounded.
func overflowWAN(t testing.TB) (json.RawMessage, [][]int64) {
	nodes := make([]model.Node, 8)
	lat := make([][]int64, len(nodes))
	for u := range nodes {
		nodes[u] = model.Node{Send: 1, Recv: 1}
		lat[u] = make([]int64, len(nodes))
		for v := range lat[u] {
			if u != v {
				lat[u][v] = 1 << 62
			}
		}
	}
	return rawSet(t, &model.MulticastSet{Latency: 1, Nodes: nodes}), lat
}

func TestCompare(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	set := genSet(t, 6, 11)
	resp, body := post(t, ts.URL+"/v1/compare", CompareRequest{Set: rawSet(t, set), Optimal: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var cr CompareResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"greedy", "greedy+leafrev", "star", "chain", "binomial"} {
		if _, ok := cr.RT[name]; !ok {
			t.Errorf("compare result missing %q (have %v)", name, cr.RT)
		}
	}
	if cr.Optimal == nil {
		t.Fatal("optimal requested on a tiny instance but not returned")
	}
	for name, rt := range cr.RT {
		if rt < *cr.Optimal {
			t.Errorf("%s RT %d beats the optimal %d", name, rt, *cr.Optimal)
		}
	}
	if cr.LowerBound > *cr.Optimal {
		t.Errorf("lower bound %d exceeds optimal %d", cr.LowerBound, *cr.Optimal)
	}
}

// TestCompareFanOutMatchesSequential: /v1/compare runs its schedulers
// concurrently and shares one computation of the base-model bounds with
// every plan it caches. Its rt map must equal running each scheduler in
// turn and scoring it, in the base model and on the generic model path;
// its bounds must be the instance's; and a later /v1/schedule hit on one
// of its plans must report the same bound. Several identical compares run
// at once so that -race covers the shared plan cache.
func TestCompareFanOutMatchesSequential(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, seed := range []int64{1, 2} {
		raw := rawSet(t, genSet(t, 64, seed))
		for _, mp := range []ModelParams{{}, {Model: "pipeline", Segments: 4}, {Model: "reduce"}, {Model: "barrier"}} {
			canon, rm, err := resolveInstance(mp, raw)
			if err != nil {
				t.Fatal(err)
			}
			scheds, err := registry.SchedulersFor(seed, rm.cm)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]int64{}
			for _, sched := range scheds {
				sch, err := sched.Schedule(canon)
				if err != nil {
					continue
				}
				if rm.cm != nil {
					sch.BindModel(rm.cm)
				}
				var tm model.Times
				if err := model.EvalTimes(sch, &tm); err != nil {
					t.Fatal(err)
				}
				want[sched.Name()] = tm.RT
			}
			var wantLB int64
			var wantThm Theorem1
			if rm.cm == nil {
				wantLB, wantThm = lower.Best(canon), theorem1(bounds.ParamsOf(canon))
			}

			body, err := json.Marshal(CompareRequest{Seed: seed, Set: raw, ModelParams: mp})
			if err != nil {
				t.Fatal(err)
			}
			const clients = 4
			got := make([]CompareResponse, clients)
			errs := make([]error, clients)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/compare", "application/json", bytes.NewReader(body))
					if err != nil {
						errs[i] = err
						return
					}
					defer resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs[i] = fmt.Errorf("HTTP %d", resp.StatusCode)
						return
					}
					errs[i] = json.NewDecoder(resp.Body).Decode(&got[i])
				}()
			}
			wg.Wait()
			for i, cr := range got {
				if errs[i] != nil {
					t.Fatalf("seed %d model %q: compare %d: %v", seed, mp.Model, i, errs[i])
				}
				if !maps.Equal(cr.RT, want) {
					t.Errorf("seed %d model %q: compare %d rt = %v, want %v", seed, mp.Model, i, cr.RT, want)
				}
				if cr.LowerBound != wantLB || cr.Theorem1 != wantThm {
					t.Errorf("seed %d model %q: compare %d bounds = %d %+v, want %d %+v",
						seed, mp.Model, i, cr.LowerBound, cr.Theorem1, wantLB, wantThm)
				}
			}

			resp, data := post(t, ts.URL+"/v1/schedule", ScheduleRequest{Algo: "annealing", Seed: seed, Set: raw, ModelParams: mp})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d model %q: schedule: HTTP %d: %s", seed, mp.Model, resp.StatusCode, data)
			}
			var sr ScheduleResponse
			if err := json.Unmarshal(data, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Cache != "hit" || sr.RT != want["annealing"] || sr.LowerBound != wantLB || sr.Theorem1 != wantThm {
				t.Errorf("seed %d model %q: schedule after compare = %s rt %d bounds %d %+v, want hit rt %d bounds %d %+v",
					seed, mp.Model, sr.Cache, sr.RT, sr.LowerBound, sr.Theorem1, want["annealing"], wantLB, wantThm)
			}
		}
	}
}

func TestRenderFormats(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	set := genSet(t, 6, 2)
	for format, want := range map[string]string{
		"tree":  "send=",
		"gantt": "time units per column",
		"dot":   "digraph multicast",
		"svg":   "<svg",
		"json":  `"edges"`,
	} {
		resp, body := post(t, ts.URL+"/v1/render", RenderRequest{Set: rawSet(t, set), Format: format})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("format %s: HTTP %d: %s", format, resp.StatusCode, body)
			continue
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("format %s output missing %q: %.120s", format, want, body)
		}
	}
	// An unknown format is a 400 before any planning, so an exact
	// algorithm fills no table for it.
	resp, _ := post(t, ts.URL+"/v1/render", RenderRequest{Algo: "optimal", Set: rawSet(t, set), Format: "png"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: HTTP %d, want 400", resp.StatusCode)
	}
	if n := svc.TableBuilds(); n != 0 {
		t.Errorf("a rejected render built %d tables, want 0", n)
	}
}

// TestRenderWidthCap: a gantt width up to MaxRenderWidth renders, and a
// larger one is a 400 that names the field.
func TestRenderWidthCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	set := rawSet(t, genSet(t, 6, 2))
	resp, body := post(t, ts.URL+"/v1/render", RenderRequest{Set: set, Format: "gantt", Width: MaxRenderWidth})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("width %d: HTTP %d: %s", MaxRenderWidth, resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/render", RenderRequest{Set: set, Format: "gantt", Width: MaxRenderWidth + 1})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "width") {
		t.Errorf("width %d: HTTP %d: %s, want a 400 naming width", MaxRenderWidth+1, resp.StatusCode, body)
	}
}

// TestRequestBodyCap: every POST endpoint reads at most MaxRequestBytes.
// A body of exactly the cap is admitted; one byte more is a 413 that
// names the cap.
func TestRequestBodyCap(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	h := svc.Handler()
	head := `{"set":` + string(rawSet(t, genSet(t, 6, 2)))
	for _, path := range []string{"/v1/schedule", "/v1/compare", "/v1/render", "/v1/table", "/v1/sweeps"} {
		for _, size := range []int{MaxRequestBytes, MaxRequestBytes + 1} {
			body := head + strings.Repeat(" ", size-len(head)-1) + "}"
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			over := size > MaxRequestBytes
			if got := rec.Code == http.StatusRequestEntityTooLarge; got != over {
				t.Errorf("%s, %d-byte body: HTTP %d: %.200s", path, size, rec.Code, rec.Body)
			}
			if over && !strings.Contains(rec.Body.String(), fmt.Sprint(MaxRequestBytes)) {
				t.Errorf("%s: 413 does not name the cap: %s", path, rec.Body)
			}
		}
	}
}

func TestSweepNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/sweeps/sweep-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("HTTP %d, want 404", resp.StatusCode)
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts.URL+"/v1/sweeps", SweepRequest{Trials: 0})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("zero trials: HTTP %d, want 422", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/sweeps", SweepRequest{Trials: 1, Schedulers: []string{"bogus"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bogus scheduler: HTTP %d, want 422", resp.StatusCode)
	}
}

func TestSweepPerturbed(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/sweeps", SweepRequest{
		Trials: 4, N: 12, Seed: 5, Perturbed: 40, Jitter: 0.25, JitterSeed: 9,
		Schedulers: []string{"greedy", "chain"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	job = waitJob(t, svc, job.ID)
	if job.Status != JobDone {
		t.Fatalf("job %s: status %s (%s)", job.ID, job.Status, job.Error)
	}
	if job.Result == nil || len(job.Result.PerturbedSummaries) != 2 {
		t.Fatalf("perturbed summaries missing from result: %+v", job.Result)
	}
	for _, name := range []string{"greedy", "chain"} {
		ps, ok := job.Result.PerturbedSummaries[name]
		if !ok {
			t.Fatalf("no perturbed summary for %s", name)
		}
		nominal := job.Result.Summaries[name]
		if ps.N != nominal.N {
			t.Errorf("%s: perturbed count %d, nominal %d", name, ps.N, nominal.N)
		}
		// Mean perturbed RT stays inside the 25% jitter envelope of the
		// nominal mean (with slack for integer truncation per hop).
		if ps.Mean < 0.74*nominal.Mean-64 || ps.Mean > 1.26*nominal.Mean+64 {
			t.Errorf("%s: perturbed mean %v far from nominal mean %v", name, ps.Mean, nominal.Mean)
		}
	}
	// A nominal-only sweep must not report perturbed summaries.
	resp, body = post(t, ts.URL+"/v1/sweeps", SweepRequest{Trials: 2, N: 6, Schedulers: []string{"greedy"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &job)
	job = waitJob(t, svc, job.ID)
	if job.Result == nil || job.Result.PerturbedSummaries != nil {
		t.Errorf("nominal sweep reported perturbed summaries: %+v", job.Result)
	}
}

func TestSweepPerturbedValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]SweepRequest{
		"negative perturbed": {Trials: 1, Perturbed: -1},
		"jitter too large":   {Trials: 1, Perturbed: 8, Jitter: 1.0},
		"negative jitter":    {Trials: 1, Perturbed: 8, Jitter: -0.1},
		"over cap":           {Trials: 1, Perturbed: 5000, Jitter: 0.1},
	} {
		resp, _ := post(t, ts.URL+"/v1/sweeps", req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: HTTP %d, want 422", name, resp.StatusCode)
		}
	}
	// A raised cap admits larger draw counts.
	_, ts2 := newTestServer(t, Config{SweepMaxPerturbed: 10000})
	resp, body := post(t, ts2.URL+"/v1/sweeps", SweepRequest{Trials: 1, N: 4, Perturbed: 5000, Jitter: 0.1})
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("raised cap: HTTP %d (%s), want 202", resp.StatusCode, body)
	}
}

func TestJobStoreBoundEvictsFinished(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxJobs: 2})
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts.URL+"/v1/sweeps", SweepRequest{
			Trials: 2, N: 4, Seed: int64(i), Schedulers: []string{"greedy"},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sweep %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		var job Job
		json.Unmarshal(body, &job)
		ids = append(ids, job.ID)
		waitJob(t, svc, job.ID)
	}
	if got := len(svc.jobs.list()); got > 2 {
		t.Errorf("job store retains %d jobs, bound is 2", got)
	}
	// The oldest job must have been evicted to admit the third.
	if _, ok := svc.jobs.get(ids[0]); ok {
		t.Errorf("oldest finished job %s should have been evicted", ids[0])
	}
}

func waitJob(t *testing.T, svc *Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := svc.jobs.get(id)
		if !ok {
			t.Fatalf("job %s disappeared while running", id)
		}
		if job.Status != JobRunning {
			return job
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return Job{}
}

func TestCloseCancelsRunningSweep(t *testing.T) {
	svc := New(Config{Workers: 1, SweepMaxTrials: 500000})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, body := post(t, ts.URL+"/v1/sweeps", SweepRequest{
		Trials: 200000, N: 24, Schedulers: []string{"greedy+leafrev", "beam-search"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var job Job
	json.Unmarshal(body, &job)

	svc.Close() // must cancel the sweep and return promptly
	got, ok := svc.jobs.get(job.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if got.Status == JobRunning {
		t.Errorf("job still running after Close: %+v", got)
	}
}

// TestSweepRequestCaps: one oversized sweep request must not wedge the
// daemon — Trials/N/K beyond the server caps are rejected with 422, and
// a K the generator could never satisfy is rejected up front.
func TestSweepRequestCaps(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]SweepRequest{
		"trials":       {Trials: 50001},
		"n":            {Trials: 1, N: 4096},
		"k":            {Trials: 1, K: 64},
		"k vs maxsend": {Trials: 1, K: 8, MaxSend: 4},
	} {
		resp, body := post(t, ts.URL+"/v1/sweeps", req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: HTTP %d (%s), want 422", name, resp.StatusCode, body)
		}
	}
	// Config overrides raise the cap.
	_, ts2 := newTestServer(t, Config{Workers: 1, SweepMaxTrials: 100000})
	resp, body := post(t, ts2.URL+"/v1/sweeps", SweepRequest{Trials: 60000, N: 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("override: HTTP %d (%s), want 202", resp.StatusCode, body)
	}
}

// TestHandlerConcurrent drives the full schedule path from many
// goroutines; with -race this exercises the sharded cache under real
// handler traffic.
func TestHandlerConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 8, CacheShards: 4})
	sets := make([]json.RawMessage, 4)
	for i := range sets {
		sets[i] = rawSet(t, genSet(t, 10, int64(i)))
	}
	var mu sync.Mutex
	labels := map[string]int{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				req := ScheduleRequest{Set: sets[(g+i)%len(sets)]}
				data, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Error(err)
					return
				}
				var sr ScheduleResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("HTTP %d, decode error %v", resp.StatusCode, err)
					return
				}
				mu.Lock()
				labels[sr.Cache]++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if labels["hit"]+labels["miss"] != 8*25 {
		t.Errorf("cache labels %v, want %d hits and misses in all", labels, 8*25)
	}
	if labels["miss"] < len(sets) {
		t.Errorf("expected at least %d misses, got %d", len(sets), labels["miss"])
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status     string   `json:"status"`
		Algorithms []string `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Algorithms) < 10 {
		t.Errorf("healthz = %+v", h)
	}
}
