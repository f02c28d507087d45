package collective_test

import (
	"testing"

	hnow "repro"
	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/model"
)

// TestWrappersMatchOracles pins hnow.ReduceRT, hnow.BarrierRT and
// hnow.PlanCollectives to the oracle evaluators Reduce and BarrierRT.
// The wrappers are handed schedules bound to other cost models: they
// score reduce and barrier whatever the binding, as the oracles do, and
// leave the binding alone.
func TestWrappersMatchOracles(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		set, err := cluster.Generate(cluster.GenConfig{N: 14, K: 3, Seed: 300 + seed})
		if err != nil {
			t.Fatal(err)
		}
		sch, err := core.ScheduleWithReversal(set)
		if err != nil {
			t.Fatal(err)
		}
		red, err := collective.Reduce(sch)
		if err != nil {
			t.Fatal(err)
		}
		bar, err := collective.BarrierRT(sch)
		if err != nil {
			t.Fatal(err)
		}
		for _, cm := range []model.CostModel{model.PipelineModel{Segments: 4}, model.NodeModel{Lambda: 2}} {
			bound := sch.Clone()
			bound.BindModel(cm)
			gotRed, err := hnow.ReduceRT(bound)
			if err != nil {
				t.Fatal(err)
			}
			gotBar, err := hnow.BarrierRT(bound)
			if err != nil {
				t.Fatal(err)
			}
			if gotRed != red.Done || gotBar != bar {
				t.Fatalf("seed %d, bound to %s: ReduceRT/BarrierRT = %d/%d, oracles %d/%d",
					seed, cm.Name(), gotRed, gotBar, red.Done, bar)
			}
			if bound.Model() != cm {
				t.Fatalf("wrappers rebound the schedule to %v", bound.Model())
			}
		}
		plan, err := hnow.PlanCollectives(core.Greedy{Reversal: true}, set)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Reduce != red.Done || plan.Barrier != bar || plan.Broadcast != model.RT(sch) {
			t.Fatalf("seed %d: plan reduce/barrier/broadcast = %d/%d/%d, oracles %d/%d/%d",
				seed, plan.Reduce, plan.Barrier, plan.Broadcast, red.Done, bar, model.RT(sch))
		}
	}
}
