package live

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
)

// Validate compares a live result against the analytic times, requiring
// every measured reception to be at least the analytic value (sleeps can
// only run long) and the completion within slack of the prediction.
// Returns a descriptive error on violation.
func Validate(sch *model.Schedule, res *Result, slackFactor float64) error {
	tm := model.ComputeTimes(sch)
	for v := 1; v < len(tm.Reception); v++ {
		if res.Reception[v]+1e-6 < float64(tm.Reception[v])*0.999 {
			return fmt.Errorf("live: node %d finished at %.2f units, before the analytic %d", v, res.Reception[v], tm.Reception[v])
		}
	}
	if res.RT > float64(tm.RT)*slackFactor {
		return fmt.Errorf("live: measured RT %.2f exceeds analytic %d by more than %.2fx", res.RT, tm.RT, slackFactor)
	}
	return nil
}

func TestLiveMatchesAnalyticFigure1(t *testing.T) {
	fast := model.Node{Send: 1, Recv: 1}
	slow := model.Node{Send: 2, Recv: 3}
	set, err := model.NewMulticastSet(1, slow, fast, fast, fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	sch := model.NewSchedule(set)
	sch.MustAddChild(0, 1)
	sch.MustAddChild(0, 2)
	sch.MustAddChild(1, 3)
	sch.MustAddChild(1, 4)
	// Generous unit keeps goroutine-scheduling noise relatively small.
	res, err := Run(sch, Config{Unit: 4 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Analytic RT is 10 units; allow 40% skew for CI scheduling noise.
	if err := Validate(sch, res, 1.4); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if res.RT < 9.5 {
		t.Errorf("measured RT %.2f below the analytic 10 (impossible)", res.RT)
	}
}

func TestLiveGreedyOnGeneratedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test skipped in -short mode")
	}
	set, err := cluster.Generate(cluster.GenConfig{N: 12, K: 3, MaxSend: 6, Latency: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := core.ScheduleWithReversal(set)
	if err != nil {
		t.Fatal(err)
	}
	// Machine load only inflates wall time, so the checks that a measured
	// time is never early hold on every attempt, while the upper slack
	// needs one attempt that ran unloaded.
	const attempts, slack = 3, 1.5
	var slow error
	for a := 1; a <= attempts; a++ {
		res, err := Run(sch, Config{Unit: time.Millisecond})
		if err != nil {
			t.Fatalf("attempt %d: Run: %v", a, err)
		}
		if err := Validate(sch, res, math.Inf(1)); err != nil {
			t.Fatalf("attempt %d: Validate: %v", a, err)
		}
		// Delivery order sanity: every child is delivered after its
		// parent's reception.
		for v := 1; v < len(set.Nodes); v++ {
			p := sch.Parent(model.NodeID(v))
			if p == 0 {
				continue
			}
			if res.Delivery[v] < res.Reception[p]-0.5 {
				t.Fatalf("attempt %d: node %d delivered at %.2f before parent %d finished receiving at %.2f",
					a, v, res.Delivery[v], p, res.Reception[p])
			}
		}
		if slow = Validate(sch, res, slack); slow == nil {
			return
		}
		t.Logf("attempt %d: %v", a, slow)
	}
	t.Errorf("Validate on all %d attempts: %v", attempts, slow)
}

func TestLiveRejectsIncomplete(t *testing.T) {
	set, err := cluster.Generate(cluster.GenConfig{N: 3, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sch := model.NewSchedule(set)
	sch.MustAddChild(0, 1)
	if _, err := Run(sch, Config{}); err == nil {
		t.Error("incomplete schedule accepted")
	}
}

func TestLiveTimeout(t *testing.T) {
	set, err := cluster.Generate(cluster.GenConfig{N: 4, K: 2, MaxSend: 50, Latency: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := core.Schedule(set)
	if err != nil {
		t.Fatal(err)
	}
	// Completion needs hundreds of units; a 10ms timeout with 1ms units
	// must abort.
	if _, err := Run(sch, Config{Unit: time.Millisecond, Timeout: 10 * time.Millisecond}); err == nil {
		t.Error("run completed despite an impossible timeout")
	}
}
