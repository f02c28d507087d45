package pipeline_test

import (
	"testing"

	hnow "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// TestPipelineRTMatchesOracle pins the public wrapper hnow.PipelineRT to
// the oracle evaluator RT on schedules bound to other cost models: the
// wrapper scores the pipelined objective whatever the binding, as the
// oracle does, and leaves the binding alone.
func TestPipelineRTMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		set, err := cluster.Generate(cluster.GenConfig{N: 12, K: 3, Seed: 200 + seed})
		if err != nil {
			t.Fatal(err)
		}
		sch, err := core.ScheduleWithReversal(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, cm := range []model.CostModel{model.ReduceModel{}, model.BarrierModel{}, model.NodeModel{Lambda: 3}} {
			bound := sch.Clone()
			bound.BindModel(cm)
			for _, segs := range []int{1, 3, 8} {
				got, err := hnow.PipelineRT(bound, segs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := pipeline.RT(sch, segs)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d, bound to %s, %d segments: PipelineRT = %d, oracle RT = %d",
						seed, cm.Name(), segs, got, want)
				}
			}
			if bound.Model() != cm {
				t.Fatalf("PipelineRT rebound the schedule to %v", bound.Model())
			}
		}
	}
}
