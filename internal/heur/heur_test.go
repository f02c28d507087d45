package heur

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/model"
)

func genSet(t testing.TB, n int, seed int64) *model.MulticastSet {
	t.Helper()
	set, err := cluster.Generate(cluster.GenConfig{N: n, K: 3, MaxSend: 16, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestAllHeuristicsProduceValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	heuristics := []model.Scheduler{SlowestFirst{}, LocalSearch{}, Annealing{Seed: 3, Iters: 300}}
	for trial := 0; trial < 25; trial++ {
		set := genSet(t, 1+rng.Intn(25), rng.Int63())
		for _, h := range heuristics {
			sch, err := h.Schedule(set)
			if err != nil {
				t.Fatalf("%s: %v", h.Name(), err)
			}
			if err := sch.Validate(); err != nil {
				t.Fatalf("%s: %v", h.Name(), err)
			}
			if !sch.Complete() {
				t.Fatalf("%s: incomplete", h.Name())
			}
		}
	}
}

func TestLocalSearchNeverWorseThanBase(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		set := genSet(t, 2+rng.Intn(20), rng.Int63())
		base, err := core.ScheduleWithReversal(set)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := (LocalSearch{}).Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		if model.RT(ls) > model.RT(base) {
			t.Fatalf("trial %d: local search RT %d worse than base %d", trial, model.RT(ls), model.RT(base))
		}
	}
}

func TestAnnealingNeverWorseThanStart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		set := genSet(t, 2+rng.Intn(15), rng.Int63())
		start, err := core.ScheduleWithReversal(set)
		if err != nil {
			t.Fatal(err)
		}
		an, err := (Annealing{Seed: int64(trial) + 1, Iters: 500}).Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		if model.RT(an) > model.RT(start) {
			t.Fatalf("trial %d: annealing %d worse than its greedy start %d", trial, model.RT(an), model.RT(start))
		}
	}
}

func TestHeuristicsNeverBelowOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	heuristics := []model.Scheduler{SlowestFirst{}, LocalSearch{}, Annealing{Seed: 9, Iters: 400}}
	for trial := 0; trial < 25; trial++ {
		set := genSet(t, 2+rng.Intn(6), rng.Int63())
		opt, err := exact.OptimalRT(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range heuristics {
			sch, err := h.Schedule(set)
			if err != nil {
				t.Fatal(err)
			}
			if model.RT(sch) < opt {
				t.Fatalf("%s produced RT %d below optimal %d (model bug)", h.Name(), model.RT(sch), opt)
			}
		}
	}
}

func TestLocalSearchClosesGapOnFigure1LikeInstances(t *testing.T) {
	// On small instances local search from greedy+leafrev should reach
	// the optimum most of the time. Require >= 70% hit rate.
	rng := rand.New(rand.NewSource(5))
	hits, total := 0, 0
	for trial := 0; trial < 30; trial++ {
		set := genSet(t, 3+rng.Intn(4), rng.Int63())
		opt, err := exact.OptimalRT(set)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := (LocalSearch{}).Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if model.RT(sch) == opt {
			hits++
		}
	}
	if hits*10 < total*7 {
		t.Errorf("local search reached the optimum on only %d/%d small instances", hits, total)
	}
}

func TestAnnealingDeterministicPerSeed(t *testing.T) {
	set := genSet(t, 15, 77)
	a1, err := (Annealing{Seed: 5, Iters: 400}).Schedule(set)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := (Annealing{Seed: 5, Iters: 400}).Schedule(set)
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Equal(a2) {
		t.Error("same seed produced different schedules")
	}
}

func TestSlowestFirstOrder(t *testing.T) {
	set := genSet(t, 10, 6)
	sch, err := (SlowestFirst{}).Schedule(set)
	if err != nil {
		t.Fatal(err)
	}
	tm := model.ComputeTimes(sch)
	// The very first delivery goes to a slowest-type node.
	var firstID model.NodeID = -1
	for v := 1; v < len(set.Nodes); v++ {
		if firstID == -1 || tm.Delivery[v] < tm.Delivery[firstID] {
			firstID = model.NodeID(v)
		}
	}
	maxSend := int64(0)
	for _, n := range set.Nodes[1:] {
		if n.Send > maxSend {
			maxSend = n.Send
		}
	}
	if set.Nodes[firstID].Send != maxSend {
		t.Errorf("first delivered node has send %d, slowest is %d", set.Nodes[firstID].Send, maxSend)
	}
}

func TestNamesDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, h := range []model.Scheduler{SlowestFirst{}, LocalSearch{}, Annealing{}} {
		if names[h.Name()] {
			t.Errorf("duplicate name %q", h.Name())
		}
		names[h.Name()] = true
	}
}

func TestLocalSearchSmallEdgeCases(t *testing.T) {
	// 0 and 1 destination instances must pass through unharmed.
	for _, n := range []int{0, 1} {
		set, err := cluster.Generate(cluster.GenConfig{N: n, K: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []model.Scheduler{SlowestFirst{}, LocalSearch{}, Annealing{Seed: 2}} {
			if n == 0 {
				// SlowestFirst via ScheduleOrder handles empty orders.
				sch, err := h.Schedule(set)
				if err != nil {
					t.Fatalf("%s on empty: %v", h.Name(), err)
				}
				if !sch.Complete() {
					t.Fatalf("%s on empty: incomplete", h.Name())
				}
				continue
			}
			sch, err := h.Schedule(set)
			if err != nil {
				t.Fatalf("%s: %v", h.Name(), err)
			}
			if err := sch.Validate(); err != nil {
				t.Fatalf("%s: %v", h.Name(), err)
			}
		}
	}
}

// BenchmarkLocalSearch runs the search end to end at the service's
// n=64 shape and at the larger sizes a per-algorithm size cap is drawn
// from.
func BenchmarkLocalSearch(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			set := genSet(b, n, 11)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (LocalSearch{MaxRounds: 10}).Schedule(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnnealing64 covers the annealing loop end to end with its
// pooled undo bookkeeping.
func BenchmarkAnnealing64(b *testing.B) {
	set := genSet(b, 64, 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (Annealing{Seed: 5, Iters: 2000}).Schedule(set); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBeamSearchValidAndDominatesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var beamTotal, greedyTotal int64
	for trial := 0; trial < 40; trial++ {
		set := genSet(t, 2+rng.Intn(25), rng.Int63())
		bs, err := (BeamSearch{}).Schedule(set)
		if err != nil {
			t.Fatalf("beam: %v", err)
		}
		if err := bs.Validate(); err != nil {
			t.Fatalf("beam schedule invalid: %v", err)
		}
		g, err := core.ScheduleWithReversal(set)
		if err != nil {
			t.Fatal(err)
		}
		beamTotal += model.RT(bs)
		greedyTotal += model.RT(g)
	}
	if beamTotal > greedyTotal {
		t.Errorf("beam total %d worse than greedy+leafrev total %d", beamTotal, greedyTotal)
	}
}

func TestBeamWidthOneMatchesGreedy(t *testing.T) {
	// Width = Branch = 1 degenerates to the greedy rule with lowest-ID
	// tie-breaking -- exactly core.NaiveSchedule -- plus leaf reversal.
	// (The heap greedy breaks key ties by insertion sequence instead, so
	// its post-reversal RT can differ on tied instances; the naive
	// variant is the structural twin.)
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		set := genSet(t, 1+rng.Intn(20), rng.Int63())
		bs, err := (BeamSearch{Width: 1, Branch: 1}).Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := core.NaiveSchedule(set)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.ReverseLeaves(naive); err != nil {
			t.Fatal(err)
		}
		if model.RT(bs) != model.RT(naive) {
			t.Fatalf("trial %d: beam(1,1) RT %d != naive-greedy+leafrev RT %d", trial, model.RT(bs), model.RT(naive))
		}
	}
}

func TestBeamSearchNeverBelowOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	closes := 0
	trials := 30
	for trial := 0; trial < trials; trial++ {
		set := genSet(t, 3+rng.Intn(5), rng.Int63())
		opt, err := exact.OptimalRT(set)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := (BeamSearch{Width: 16, Branch: 4}).Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		if model.RT(bs) < opt {
			t.Fatalf("beam RT %d below optimal %d", model.RT(bs), opt)
		}
		if model.RT(bs) == opt {
			closes++
		}
	}
	t.Logf("beam(16,4) hit the optimum on %d/%d small instances", closes, trials)
	if closes*10 < trials*7 {
		t.Errorf("beam hit rate too low: %d/%d", closes, trials)
	}
}

func TestBeamSearchDeterministic(t *testing.T) {
	set := genSet(t, 18, 71)
	a, err := (BeamSearch{}).Schedule(set)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (BeamSearch{}).Schedule(set)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("beam search not deterministic")
	}
}

// TestCoolingMatchesPow pins Annealing's cooling table to math.Pow bit
// for bit, on both sides of the table's end.
func TestCoolingMatchesPow(t *testing.T) {
	for i := 0; i < defaultAnnealIters+100; i++ {
		got, want := cooling(i), math.Pow(0.995, float64(i))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cooling(%d) = %v, math.Pow gives %v", i, got, want)
		}
	}
}
