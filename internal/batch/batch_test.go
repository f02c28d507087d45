package batch

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
)

func testSweep(workers int) Sweep {
	return Sweep{
		Gen: func(i int) (*model.MulticastSet, error) {
			return cluster.Generate(cluster.GenConfig{N: 5 + i%20, K: 3, Seed: int64(i)})
		},
		Schedulers: append([]model.Scheduler{core.Greedy{Reversal: true}}, baselines.All(9)...),
		Trials:     40,
		Workers:    workers,
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, err := testSweep(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := testSweep(8).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("trial %d errored: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].RT, parallel[i].RT) {
			t.Fatalf("trial %d differs between 1 and 8 workers:\n%v\n%v", i, serial[i].RT, parallel[i].RT)
		}
	}
}

// TestRunClampsWorkers: a Workers count above GOMAXPROCS runs at most
// GOMAXPROCS trials at once.
func TestRunClampsWorkers(t *testing.T) {
	var running, peak atomic.Int64
	s := testSweep(64)
	s.Trials = 64
	gen := s.Gen
	s.Gen = func(i int) (*model.MulticastSet, error) {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		running.Add(-1)
		return gen(i)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got, limit := peak.Load(), int64(runtime.GOMAXPROCS(0)); got > limit {
		t.Errorf("%d trials ran at once with Workers=64, want at most GOMAXPROCS=%d", got, limit)
	}
}

func TestRunOrderedResults(t *testing.T) {
	res, err := testSweep(4).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
	}
}

func TestConfigurationErrors(t *testing.T) {
	if _, err := (Sweep{Trials: 1, Schedulers: []model.Scheduler{core.Greedy{}}}).Run(); err == nil {
		t.Error("nil Gen accepted")
	}
	gen := func(i int) (*model.MulticastSet, error) {
		return cluster.Generate(cluster.GenConfig{N: 3, K: 1, Seed: int64(i)})
	}
	if _, err := (Sweep{Gen: gen, Trials: -1, Schedulers: []model.Scheduler{core.Greedy{}}}).Run(); err == nil {
		t.Error("negative trials accepted")
	}
	if _, err := (Sweep{Gen: gen, Trials: 1}).Run(); err == nil {
		t.Error("no schedulers accepted")
	}
	dup := Sweep{Gen: gen, Trials: 1, Schedulers: []model.Scheduler{core.Greedy{}, core.Greedy{}}}
	if _, err := dup.Run(); err == nil {
		t.Error("duplicate scheduler names accepted")
	}
}

func TestTrialErrorsReported(t *testing.T) {
	boom := errors.New("boom")
	s := Sweep{
		Gen: func(i int) (*model.MulticastSet, error) {
			if i == 3 {
				return nil, boom
			}
			return cluster.Generate(cluster.GenConfig{N: 4, K: 2, Seed: int64(i)})
		},
		Schedulers: []model.Scheduler{core.Greedy{}},
		Trials:     6,
		Workers:    2,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res[3].Err == nil || !errors.Is(res[3].Err, boom) {
		t.Errorf("trial 3 error = %v", res[3].Err)
	}
	if got := FirstError(res); !errors.Is(got, boom) {
		t.Errorf("FirstError = %v", got)
	}
	for i, r := range res {
		if i != 3 && r.Err != nil {
			t.Errorf("trial %d unexpectedly errored: %v", i, r.Err)
		}
	}
}

func TestAggregateAndWinCounts(t *testing.T) {
	res, err := testSweep(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	g := Aggregate(res, "greedy+leafrev")
	if g.N != 40 {
		t.Fatalf("aggregate N = %d, want 40", g.N)
	}
	star := Aggregate(res, "star")
	if g.Mean >= star.Mean {
		t.Errorf("greedy mean %f not better than star %f", g.Mean, star.Mean)
	}
	wins := WinCounts(res)
	total := 0
	for _, w := range wins {
		total += w
	}
	if total < 40 {
		t.Errorf("win counts sum %d below trials", total)
	}
	if wins["greedy+leafrev"] < 30 {
		t.Errorf("greedy won only %d/40 trials", wins["greedy+leafrev"])
	}
	if Aggregate(res, "no-such-scheduler").N != 0 {
		t.Error("aggregate of unknown scheduler not empty")
	}
}

func TestZeroTrials(t *testing.T) {
	s := testSweep(2)
	s.Trials = 0
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("expected empty results, got %d", len(res))
	}
}

func BenchmarkSweepParallel(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := testSweep(workers)
			s.Trials = 16
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
