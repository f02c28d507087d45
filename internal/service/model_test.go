package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wan"
)

func testTopo(t *testing.T, seed int64) *wan.Topology {
	t.Helper()
	topo, err := wan.GenerateClustered(wan.ClusteredConfig{
		Clusters: 3, NodesPerCluster: 4,
		LANLatency: 2, WANLatency: 40,
		K: 3, MaxSend: 10, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestScheduleWANModelRoundTrip is the acceptance test for the service
// surface: a "model":"wan" request must plan under the latency matrix,
// round-trip through the plan cache under a model-prefixed key, never
// collide with the base-model plan of the same network, and report the
// RT that model.EvalTimes computes for the returned tree under a
// LinkModel built from the request's matrix (FuzzLinkModelParity in
// package wan pins that path to the WAN oracle evaluator).
func TestScheduleWANModelRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopo(t, 11)
	set := topo.BaseSet(topo.MinLatency())

	req := ScheduleRequest{
		Algo:        "local-search",
		Set:         rawSet(t, set),
		ModelParams: ModelParams{Model: "wan", Lat: topo.Lat},
	}
	resp, body := post(t, ts.URL+"/v1/schedule", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wan schedule: HTTP %d: %s", resp.StatusCode, body)
	}
	var first ScheduleResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" {
		t.Errorf("first wan request should miss, got %q", first.Cache)
	}
	if !strings.HasPrefix(first.Key, "m=wan:") {
		t.Errorf("wan cache key %q lacks the m=wan: prefix", first.Key)
	}
	if first.LowerBound != 0 {
		t.Errorf("base-model lower bound %d reported for a wan plan", first.LowerBound)
	}
	// The returned tree, rescored under the request's matrix, must
	// achieve exactly the reported RT.
	sch, err := trace.UnmarshalJSON(first.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	sch.BindModel(&model.LinkModel{Lat: req.Lat})
	var ref model.Times
	if err := model.EvalTimes(sch, &ref); err != nil {
		t.Fatal(err)
	}
	if ref.RT != first.RT {
		t.Errorf("reported RT %d, link-model rescoring says %d", first.RT, ref.RT)
	}

	// Identical request: cache hit, same key, same plan.
	_, body = post(t, ts.URL+"/v1/schedule", req)
	var second ScheduleResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" || second.Key != first.Key || second.RT != first.RT {
		t.Errorf("wan re-request: cache=%q key=%q rt=%d, want hit/%q/%d",
			second.Cache, second.Key, second.RT, first.Key, first.RT)
	}

	// The SAME network under the base model must resolve to a different
	// key and miss: wan plans never collide with base plans.
	resp, body = post(t, ts.URL+"/v1/schedule", ScheduleRequest{Algo: "local-search", Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base schedule: HTTP %d: %s", resp.StatusCode, body)
	}
	var base ScheduleResponse
	if err := json.Unmarshal(body, &base); err != nil {
		t.Fatal(err)
	}
	if base.Key == first.Key {
		t.Errorf("base plan key %q collides with the wan plan key", base.Key)
	}
	if base.Cache != "miss" {
		t.Errorf("base request after wan requests should miss, got %q", base.Cache)
	}
}

// TestScheduleWANGeneratedInstance drives the "wan" generator spec: the
// request carries no set at all, the server draws the clustered topology.
func TestScheduleWANGeneratedInstance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := &WANSpec{Clusters: 2, NodesPerCluster: 5, LANLatency: 1, WANLatency: 30, Seed: 3}
	resp, body := post(t, ts.URL+"/v1/schedule", ScheduleRequest{
		Algo:        "greedy",
		ModelParams: ModelParams{Model: "wan", WAN: spec},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generated wan schedule: HTTP %d: %s", resp.StatusCode, body)
	}
	var got ScheduleResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.RT <= 0 || !strings.HasPrefix(got.Key, "m=wan:") {
		t.Errorf("generated wan plan: rt=%d key=%q", got.RT, got.Key)
	}

	// Supplying both a set and the generator spec is an error.
	topo := testTopo(t, 1)
	resp, _ = post(t, ts.URL+"/v1/schedule", ScheduleRequest{
		Set:         rawSet(t, topo.BaseSet(1)),
		ModelParams: ModelParams{Model: "wan", WAN: spec},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("set+wan spec: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestScheduleModelValidation rejects stray or inconsistent model
// parameters instead of silently ignoring them.
func TestScheduleModelValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopo(t, 2)
	set := rawSet(t, topo.BaseSet(1))
	for name, req := range map[string]ScheduleRequest{
		"unknown model":           {Set: set, ModelParams: ModelParams{Model: "postal"}},
		"segments on base":        {Set: set, ModelParams: ModelParams{Segments: 4}},
		"segments on wan":         {Set: set, ModelParams: ModelParams{Model: "wan", Lat: topo.Lat, Segments: 2}},
		"lat on pipeline":         {Set: set, ModelParams: ModelParams{Model: "pipeline", Segments: 2, Lat: topo.Lat}},
		"pipeline without M":      {Set: set, ModelParams: ModelParams{Model: "pipeline"}},
		"wan without lat or spec": {Set: set, ModelParams: ModelParams{Model: "wan"}},
		"wan with lat and spec":   {Set: set, ModelParams: ModelParams{Model: "wan", Lat: topo.Lat, WAN: &WANSpec{Clusters: 2, NodesPerCluster: 2, LANLatency: 1, WANLatency: 5}}},
		"lat shape mismatch":      {Set: set, ModelParams: ModelParams{Model: "wan", Lat: topo.Lat[:3]}},
	} {
		resp, body := post(t, ts.URL+"/v1/schedule", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
}

// TestCompareUnderModel runs the full scheduler panel under a pipelined
// objective and rejects the exact-DP request, which argues the base model
// only.
func TestCompareUnderModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	set := rawSet(t, genSet(t, 10, 21))

	resp, body := post(t, ts.URL+"/v1/compare", CompareRequest{
		Set:         set,
		ModelParams: ModelParams{Model: "pipeline", Segments: 8},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pipelined compare: HTTP %d: %s", resp.StatusCode, body)
	}
	var got CompareResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.RT) == 0 {
		t.Fatal("pipelined compare returned no completion times")
	}
	if got.LowerBound != 0 || got.Theorem1.C != 0 {
		t.Errorf("base-model analysis leaked into a pipelined compare: %+v", got)
	}

	resp, _ = post(t, ts.URL+"/v1/compare", CompareRequest{
		Set:         set,
		Optimal:     true,
		ModelParams: ModelParams{Model: "reduce"},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("optimal under reduce model: HTTP %d, want 422", resp.StatusCode)
	}
}

// TestRenderModelJSONOnly: the text renderers draw base-model timings, so
// a non-base model admits only the json format.
func TestRenderModelJSONOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	set := rawSet(t, genSet(t, 8, 5))
	mp := ModelParams{Model: "pipeline", Segments: 3}

	resp, _ := post(t, ts.URL+"/v1/render", RenderRequest{Set: set, Format: "gantt", ModelParams: mp})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("gantt under pipeline model: HTTP %d, want 422", resp.StatusCode)
	}
	resp, body := post(t, ts.URL+"/v1/render", RenderRequest{Set: set, Format: "json", ModelParams: mp})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("json render under pipeline model: HTTP %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestSweepUnderModels runs a pipelined sweep and a WAN sweep end to end,
// resubmits the WAN job's echoed request, and checks the
// model-validation rejections.
func TestSweepUnderModels(t *testing.T) {
	svc, ts := newTestServer(t, Config{})

	resp, body := post(t, ts.URL+"/v1/sweeps", SweepRequest{
		Trials: 3, N: 10, Seed: 4,
		Schedulers: []string{"greedy", "local-search"},
		Model:      "pipeline", Segments: 4,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pipelined sweep: HTTP %d: %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	job = waitJob(t, svc, job.ID)
	if job.Status != JobDone {
		t.Fatalf("pipelined sweep: status %s (%s)", job.Status, job.Error)
	}
	if job.Result == nil || job.Result.Errors != 0 || len(job.Result.Summaries) != 2 {
		t.Fatalf("pipelined sweep result: %+v", job.Result)
	}

	resp, body = post(t, ts.URL+"/v1/sweeps", SweepRequest{
		Trials: 3, Seed: 9,
		Schedulers: []string{"greedy", "beam-search"},
		Model:      "wan",
		WAN:        &WANSpec{Clusters: 2, NodesPerCluster: 4, LANLatency: 1, WANLatency: 25, Seed: 40},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("wan sweep: HTTP %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	job = waitJob(t, svc, job.ID)
	if job.Status != JobDone {
		t.Fatalf("wan sweep: status %s (%s)", job.Status, job.Error)
	}
	if job.Result == nil || job.Result.Errors != 0 || len(job.Result.Summaries) != 2 {
		t.Fatalf("wan sweep result: %+v", job.Result)
	}
	// The request a job echoes carries no cluster-generator defaults,
	// which the WAN validation rejects, so it can be submitted again.
	if resp, body := post(t, ts.URL+"/v1/sweeps", job.Request); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmitted wan sweep: HTTP %d: %s", resp.StatusCode, body)
	}

	for name, req := range map[string]SweepRequest{
		"wan sweep without spec":   {Trials: 1, Model: "wan"},
		"wan sweep with cluster n": {Trials: 1, N: 8, Model: "wan", WAN: &WANSpec{Clusters: 2, NodesPerCluster: 2, LANLatency: 1, WANLatency: 5}},
		"segments on base sweep":   {Trials: 1, Segments: 2},
		"perturbed under model":    {Trials: 1, Model: "reduce", Perturbed: 8, Jitter: 0.1},
		"unknown sweep model":      {Trials: 1, Model: "postal"},
		"pipeline sweep without M": {Trials: 1, Model: "pipeline"},
	} {
		resp, _ := post(t, ts.URL+"/v1/sweeps", req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: HTTP %d, want 422", name, resp.StatusCode)
		}
	}
}

// TestKeyCanonicalModelDistinguishes pins the key construction: distinct
// models (and distinct matrices under the same model) key distinct plans,
// and the base key stays byte-identical to the pre-model scheme.
func TestKeyCanonicalModelDistinguishes(t *testing.T) {
	canon := Canonicalize(genSet(t, 6, 8))
	base := KeyCanonical(canon, "greedy", 0)
	if got := KeyCanonicalModel(canon, "greedy", 0, resolvedModel{}); got != base {
		t.Errorf("base model key changed: %q vs %q", got, base)
	}
	// Same island layout, one perturbed long-haul link: the digests must
	// still differ (the seed alone does not change the matrix).
	topoA := testTopo(t, 1)
	latB := make([][]int64, len(topoA.Lat))
	for u, row := range topoA.Lat {
		latB[u] = append([]int64(nil), row...)
	}
	latB[0][1]++
	topoB := &wan.Topology{Nodes: topoA.Nodes, Lat: latB}
	keys := map[string]string{
		"base":    base,
		"wanA":    KeyCanonicalModel(canon, "greedy", 0, resolvedModel{cm: &model.LinkModel{}, key: "wan:" + latDigest(topoA.Lat)}),
		"wanB":    KeyCanonicalModel(canon, "greedy", 0, resolvedModel{cm: &model.LinkModel{}, key: "wan:" + latDigest(topoB.Lat)}),
		"pipe4":   KeyCanonicalModel(canon, "greedy", 0, resolvedModel{cm: &model.PipelineModel{Segments: 4}, key: "pipe:4"}),
		"pipe5":   KeyCanonicalModel(canon, "greedy", 0, resolvedModel{cm: &model.PipelineModel{Segments: 5}, key: "pipe:5"}),
		"reduce":  KeyCanonicalModel(canon, "greedy", 0, resolvedModel{cm: &model.ReduceModel{}, key: "reduce"}),
		"barrier": KeyCanonicalModel(canon, "greedy", 0, resolvedModel{cm: &model.BarrierModel{}, key: "barrier"}),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("keys for %s and %s collide: %q", name, prev, k)
		}
		seen[k] = name
	}
}
