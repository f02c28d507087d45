package pipeline

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
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
// to the retained reference evaluator Times on random trees and segment
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
