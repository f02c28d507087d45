package pipeline

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/heur"
	"repro/internal/model"
)

func randTestSchedule(t *testing.T, rng *rand.Rand, set *model.MulticastSet) *model.Schedule {
	t.Helper()
	sch := model.NewSchedule(set)
	attached := []model.NodeID{0}
	for _, i := range rng.Perm(len(set.Nodes) - 1) {
		v := model.NodeID(i + 1)
		if err := sch.AddChild(attached[rng.Intn(len(attached))], v); err != nil {
			t.Fatal(err)
		}
		attached = append(attached, v)
	}
	return sch
}

// TestPipelineModelMatchesTimes pins model.PipelineModel bit-identically
// to the oracle evaluator Times (oracle_test.go) on random trees and segment
// counts — the oracle contract the engine's M-wide forward recurrence,
// which model.EvalTimes runs, is certified against for pipelined
// instances.
func TestPipelineModelMatchesTimes(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		set, err := cluster.Generate(cluster.GenConfig{N: 12, K: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		sch := randTestSchedule(t, rng, set)
		for _, segs := range []int{1, 2, 5, 8} {
			want, err := Times(sch, segs)
			if err != nil {
				t.Fatal(err)
			}
			var got model.Times
			bound := sch.Clone()
			bound.BindModel(model.PipelineModel{Segments: segs})
			if err := model.EvalTimes(bound, &got); err != nil {
				t.Fatal(err)
			}
			if got.RT != want.RT {
				t.Fatalf("seed %d segs %d: PipelineModel RT = %d, Times RT = %d", seed, segs, got.RT, want.RT)
			}
			for v := 1; v < len(set.Nodes); v++ {
				if got.Delivery[v] != want.FirstDelivery[v] || got.Reception[v] != want.Completion[v] {
					t.Fatalf("seed %d segs %d node %d: PipelineModel d/r = %d/%d, Times %d/%d",
						seed, segs, v, got.Delivery[v], got.Reception[v], want.FirstDelivery[v], want.Completion[v])
				}
			}
		}
	}
}

// TestSegmentsOneMatchesBaseModel is the cross-model consistency anchor:
// a single segment degenerates to one whole-message store-and-forward
// pass, so pipeline.Times with segments=1 — and PipelineModel{1} — must
// coincide exactly with the base receive-send evaluator.
func TestSegmentsOneMatchesBaseModel(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		set, err := cluster.Generate(cluster.GenConfig{N: 14, K: 4, Seed: 100 + seed})
		if err != nil {
			t.Fatal(err)
		}
		sch, err := core.Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		base := model.ComputeTimes(sch)
		ref, err := Times(sch, 1)
		if err != nil {
			t.Fatal(err)
		}
		var cmTm model.Times
		bound := sch.Clone()
		bound.BindModel(model.PipelineModel{Segments: 1})
		if err := model.EvalTimes(bound, &cmTm); err != nil {
			t.Fatal(err)
		}
		if ref.RT != base.RT || cmTm.RT != base.RT || cmTm.DT != base.DT {
			t.Fatalf("seed %d: base RT/DT = %d/%d, Times(1) RT = %d, PipelineModel{1} RT/DT = %d/%d",
				seed, base.RT, base.DT, ref.RT, cmTm.RT, cmTm.DT)
		}
		for v := range base.Delivery {
			if cmTm.Delivery[v] != base.Delivery[v] || cmTm.Reception[v] != base.Reception[v] {
				t.Fatalf("seed %d node %d: PipelineModel{1} d/r = %d/%d, base %d/%d",
					seed, v, cmTm.Delivery[v], cmTm.Reception[v], base.Delivery[v], base.Reception[v])
			}
		}
	}
}

// TestSearchesBeatBaseGreedyOnPipeline is the pipelined (M = 8)
// acceptance test: each of heur's searches, handed a PipelineModel, must
// produce a valid schedule whose pipelined completion — scored by the
// oracle evaluator Times — is no worse than the base greedy tree's, i.e.
// optimizing the pipelined objective must not lose to ignoring it.
func TestSearchesBeatBaseGreedyOnPipeline(t *testing.T) {
	const segments = 8
	set := recvTiedPipelineSet()
	base, err := core.Schedule(set)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := Times(base, segments)
	if err != nil {
		t.Fatal(err)
	}

	cm := model.PipelineModel{Segments: segments}
	for _, s := range []model.Scheduler{
		heur.LocalSearch{Model: cm},
		heur.Annealing{Model: cm},
		heur.BeamSearch{Model: cm},
	} {
		sch, err := s.Schedule(set)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := sch.Validate(); err != nil {
			t.Fatalf("%s: invalid schedule: %v", s.Name(), err)
		}
		res, err := Times(sch, segments)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.RT > baseRes.RT {
			t.Fatalf("%s: pipelined RT %d worse than base greedy tree's %d", s.Name(), res.RT, baseRes.RT)
		}
		var tm model.Times
		if err := model.EvalTimes(sch, &tm); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if tm.RT != res.RT {
			t.Fatalf("%s: engine RT %d != pipeline reference RT %d", s.Name(), tm.RT, res.RT)
		}
	}
}

// recvTiedPipelineSet builds a heterogeneous instance where pipelining
// matters: large messages relative to per-segment overheads, a mix of
// fast and slow relays.
func recvTiedPipelineSet() *model.MulticastSet {
	nodes := make([]model.Node, 21)
	for i := range nodes {
		switch i % 3 {
		case 0:
			nodes[i] = model.Node{Send: 8, Recv: 24}
		case 1:
			nodes[i] = model.Node{Send: 16, Recv: 40}
		default:
			nodes[i] = model.Node{Send: 24, Recv: 64}
		}
	}
	return &model.MulticastSet{Latency: 12, Nodes: nodes}
}
