package collective

import (
	"math/rand"
	"testing"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
)

func genSchedule(t *testing.T, n int, seed int64) *model.Schedule {
	t.Helper()
	set, err := cluster.Generate(cluster.GenConfig{N: n, K: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := core.Schedule(set)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestBroadcastEqualsMulticastRT(t *testing.T) {
	set, err := cluster.Generate(cluster.GenConfig{N: 20, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFor(core.Greedy{}, set)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Broadcast != model.RT(plan.Schedule) {
		t.Error("broadcast RT differs from multicast RT")
	}
}

func TestReduceSingleChild(t *testing.T) {
	// Source with one destination: the leaf is ready at 0, sends
	// (osend=3), latency 2, root receives (orecv=5): done = 10.
	set, err := model.NewMulticastSet(2, model.Node{Send: 4, Recv: 5}, model.Node{Send: 3, Recv: 3})
	if err != nil {
		t.Fatal(err)
	}
	sch := model.NewSchedule(set)
	sch.MustAddChild(0, 1)
	red, err := Reduce(sch)
	if err != nil {
		t.Fatal(err)
	}
	if red.Done != 3+2+5 {
		t.Errorf("reduce done = %d, want 10", red.Done)
	}
	if red.Ready[1] != 0 {
		t.Errorf("leaf ready = %d, want 0", red.Ready[1])
	}
}

func TestReduceTwoLevels(t *testing.T) {
	// Chain 0 <- 1 <- 2, homogeneous S=1 R=1 L=1: node 1 absorbs node 2 at
	// 0+1+1+1 = 3, then root absorbs node 1 at 3+1+1+1 = 6.
	nodes := []model.Node{{Send: 1, Recv: 1}, {Send: 1, Recv: 1}, {Send: 1, Recv: 1}}
	set := &model.MulticastSet{Latency: 1, Nodes: nodes}
	sch := model.NewSchedule(set)
	sch.MustAddChild(0, 1)
	sch.MustAddChild(1, 2)
	red, err := Reduce(sch)
	if err != nil {
		t.Fatal(err)
	}
	if red.Ready[1] != 3 {
		t.Errorf("ready(1) = %d, want 3", red.Ready[1])
	}
	if red.Done != 6 {
		t.Errorf("done = %d, want 6", red.Done)
	}
}

func TestReduceSequentialAtRoot(t *testing.T) {
	// Root with two leaf children must serialize its receives: second
	// absorb = first absorb + orecv(root).
	nodes := []model.Node{{Send: 1, Recv: 2}, {Send: 1, Recv: 1}, {Send: 1, Recv: 1}}
	set := &model.MulticastSet{Latency: 1, Nodes: nodes}
	sch := model.NewSchedule(set)
	sch.MustAddChild(0, 1)
	sch.MustAddChild(0, 2)
	red, err := Reduce(sch)
	if err != nil {
		t.Fatal(err)
	}
	// Both messages arrive at 0+1+1 = 2; absorbs at 4 and 6.
	if red.Done != 6 {
		t.Errorf("done = %d, want 6", red.Done)
	}
}

func TestReduceRejectsIncomplete(t *testing.T) {
	set, err := cluster.Generate(cluster.GenConfig{N: 3, K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sch := model.NewSchedule(set)
	sch.MustAddChild(0, 1)
	if _, err := Reduce(sch); err == nil {
		t.Error("incomplete schedule accepted")
	}
}

func TestBarrierIsReducePlusBroadcast(t *testing.T) {
	sch := genSchedule(t, 15, 5)
	red, err := Reduce(sch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BarrierRT(sch)
	if err != nil {
		t.Fatal(err)
	}
	if b != red.Done+model.RT(sch) {
		t.Errorf("barrier = %d, want %d", b, red.Done+model.RT(sch))
	}
}

func TestReduceReadyMonotoneInDepth(t *testing.T) {
	// Every internal node is ready no earlier than any of its children.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		sch := genSchedule(t, 2+rng.Intn(30), rng.Int63())
		red, err := Reduce(sch)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < len(red.Ready); v++ {
			for _, c := range sch.Children(model.NodeID(v)) {
				if red.Ready[v] < red.Ready[c] {
					t.Fatalf("ready(%d)=%d < ready(child %d)=%d", v, red.Ready[v], c, red.Ready[c])
				}
			}
		}
	}
}

func TestPlanFor(t *testing.T) {
	set, err := cluster.Generate(cluster.GenConfig{N: 20, K: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFor(core.Greedy{Reversal: true}, set)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Barrier != plan.Reduce+plan.Broadcast {
		t.Error("plan arithmetic inconsistent")
	}
	// A greedy tree should give a cheaper barrier than a star tree on a
	// heterogeneous cluster of this size.
	starPlan, err := PlanFor(baselines.Star{}, set)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Barrier > starPlan.Barrier {
		t.Errorf("greedy barrier %d worse than star %d", plan.Barrier, starPlan.Barrier)
	}
}
