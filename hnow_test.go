package hnow

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
)

func figure1(t testing.TB) *MulticastSet {
	t.Helper()
	fast := Node{Send: 1, Recv: 1, Name: "fast"}
	slow := Node{Send: 2, Recv: 3, Name: "slow"}
	set, err := NewMulticastSet(1, slow, fast, fast, fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestPublicAPIEndToEnd(t *testing.T) {
	set := figure1(t)
	g, err := Greedy(set)
	if err != nil {
		t.Fatal(err)
	}
	if CompletionTime(g) != 10 {
		t.Errorf("greedy RT = %d, want 10", CompletionTime(g))
	}
	if !IsLayered(g) {
		t.Error("greedy schedule not layered")
	}
	gr, err := GreedyWithReversal(set)
	if err != nil {
		t.Fatal(err)
	}
	if CompletionTime(gr) != 8 {
		t.Errorf("greedy+reversal RT = %d, want 8", CompletionTime(gr))
	}
	opt, err := OptimalRT(set)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 8 {
		t.Errorf("optimal RT = %d, want 8", opt)
	}
	bf, err := BruteForceRT(set)
	if err != nil {
		t.Fatal(err)
	}
	if bf != opt {
		t.Errorf("brute force %d != DP %d", bf, opt)
	}
	p := TheoremBound(set)
	if float64(CompletionTime(g)) >= p.Bound(opt) {
		t.Errorf("Theorem 1 bound violated: %d >= %f", CompletionTime(g), p.Bound(opt))
	}
}

func TestGeneratePipeline(t *testing.T) {
	set, err := Generate(GenConfig{N: 80, K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range AllSchedulers(3) {
		sch, err := s.Schedule(set)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := sch.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		res, err := Simulate(sch)
		if err != nil {
			t.Fatalf("%s: simulate: %v", s.Name(), err)
		}
		if res.Times.RT != CompletionTime(sch) {
			t.Fatalf("%s: DES RT %d != analytic %d", s.Name(), res.Times.RT, CompletionTime(sch))
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	set, err := Generate(GenConfig{N: 20, K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := GreedyWithReversal(set)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalSchedule(sch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if CompletionTime(back) != CompletionTime(sch) {
		t.Error("serialization changed completion time")
	}
	setData, err := MarshalSet(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSet(setData); err != nil {
		t.Fatal(err)
	}
}

func TestRenderingSmoke(t *testing.T) {
	sch, err := GreedyWithReversal(figure1(t))
	if err != nil {
		t.Fatal(err)
	}
	if Gantt(sch, 60) == "" || DOT(sch) == "" || TreeString(sch) == "" {
		t.Error("renderers returned empty output")
	}
}

func TestCollectivesPipeline(t *testing.T) {
	set, err := Generate(GenConfig{N: 30, K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanCollectives(GreedyScheduler(true), set)
	if err != nil {
		t.Fatal(err)
	}
	red, err := ReduceRT(plan.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	bar, err := BarrierRT(plan.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Reduce != red || plan.Barrier != bar || plan.Barrier != red+plan.Broadcast {
		t.Error("collective plan inconsistent")
	}
}

func TestLiveSmoke(t *testing.T) {
	sch, err := GreedyWithReversal(figure1(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLive(sch, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic RT is 8; measurement must be at least that and not wildly
	// more.
	if res.RT < 7.5 || res.RT > 16 {
		t.Errorf("live RT = %.2f, analytic 8", res.RT)
	}
}

func TestTable(t *testing.T) {
	set := figure1(t)
	table, err := BuildOptimalTable(set)
	if err != nil {
		t.Fatal(err)
	}
	v, err := table.Lookup(1, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v != 8 {
		t.Errorf("table lookup = %d, want 8", v)
	}
}

// TestInvariantsQuick property-checks the full pipeline: for random
// instances, optimal <= greedy+rev <= greedy <= every baseline is false in
// general, but the following always hold:
//
//	opt <= rev <= greedy < Theorem-1 bound, and all schedules validate.
func TestInvariantsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(seed int64, nRaw uint8, kRaw uint8) bool {
		n := 1 + int(nRaw%7)
		k := 1 + int(kRaw%3)
		set, err := Generate(GenConfig{N: n, K: k, MaxSend: 20, Seed: seed})
		if err != nil {
			return false
		}
		g, err := Greedy(set)
		if err != nil {
			return false
		}
		gr, err := GreedyWithReversal(set)
		if err != nil {
			return false
		}
		opt, err := OptimalRT(set)
		if err != nil {
			return false
		}
		rt, rtRev := CompletionTime(g), CompletionTime(gr)
		if opt > rtRev || rtRev > rt {
			return false
		}
		p := TheoremBound(set)
		return float64(rt) < p.Bound(opt)
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestModelWrappersValidateAndKeepBinding pins the cost-model wrappers'
// contract: PipelineRT rejects a segment count outside [1, MaxSegments],
// a segment count whose cost could overflow and an incomplete tree, and
// no wrapper changes the binding of the schedule it is handed.
func TestModelWrappersValidateAndKeepBinding(t *testing.T) {
	set := figure1(t)
	sch, err := Greedy(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{0, model.MaxSegments + 1} {
		if _, err := PipelineRT(sch, m); err == nil {
			t.Errorf("PipelineRT accepted %d segments", m)
		}
	}
	huge, err := NewMulticastSet(1, Node{Send: 1 << 50, Recv: 1 << 50}, Node{Send: 1 << 50, Recv: 1 << 50})
	if err != nil {
		t.Fatal(err)
	}
	hugeSch, err := Greedy(huge)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PipelineRT(hugeSch, model.MaxSegments); err == nil {
		t.Error("PipelineRT accepted a segment count whose cost overflows MaxCost")
	}
	incomplete := NewSchedule(set)
	incomplete.MustAddChild(0, 1)
	wrappers := []struct {
		name string
		rt   func(*Schedule) (int64, error)
	}{
		{"PipelineRT", func(s *Schedule) (int64, error) { return PipelineRT(s, 3) }},
		{"ReduceRT", ReduceRT},
		{"BarrierRT", BarrierRT},
	}
	for _, w := range wrappers {
		if _, err := w.rt(incomplete); err == nil {
			t.Errorf("%s accepted an incomplete tree", w.name)
		}
		for _, cm := range []model.CostModel{nil, model.NodeModel{Lambda: 2}, model.PipelineModel{Segments: 5}} {
			bound := sch.Clone()
			bound.BindModel(cm)
			if _, err := w.rt(bound); err != nil {
				t.Fatalf("%s on a schedule bound to %v: %v", w.name, cm, err)
			}
			if bound.Model() != cm {
				t.Errorf("%s rebound the caller's schedule from %v to %v", w.name, cm, bound.Model())
			}
		}
	}
}
