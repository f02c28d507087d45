package exact

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/model"
)

// TestCascadePruningExactAndFewerColumns is the nested-pruning soundness
// gate: on randomized networks — half drawn from the recv-tied palette
// where T is non-monotone, so any bound that silently assumed
// monotonicity would corrupt values — the cascade-pruned fill's values
// must be bit-identical to the same fill with the block skip disabled, and to the retained seed recursive
// solver. Across the trials the cascade must also examine strictly fewer
// odometer columns: the skip changes iteration counts, never results.
func TestCascadePruningExactAndFewerColumns(t *testing.T) {
	var colsPruned, colsPlain int64
	for trial, set := range cascadeNetworks() {
		inst, err := Analyze(set)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := inst.NewDP()
		if err != nil {
			t.Fatal(err)
		}
		pruned.FillAll()
		plain, err := inst.NewDP()
		if err != nil {
			t.Fatal(err)
		}
		plain.noCascade = true
		plain.FillAll()
		for i := range pruned.value {
			if pruned.value[i] != plain.value[i] {
				t.Fatalf("trial %d: value[%d]: cascade=%d plain=%d\nset %+v",
					trial, i, pruned.value[i], plain.value[i], set)
			}
		}
		ref, err := newReference(set.Latency, inst.Types, inst.Counts)
		if err != nil {
			t.Fatal(err)
		}
		ref.FillAll()
		for s := 0; s < pruned.K(); s++ {
			for st := int64(0); st < pruned.prod; st++ {
				if got, want := pruned.value[pruned.stateIndex(s, st)], ref.Value(s, st); got != want {
					t.Fatalf("trial %d: state (s=%d, vec=%d): cascade=%d reference=%d\nset %+v",
						trial, s, st, got, want, set)
				}
			}
		}
		colsPruned += pruned.EvalColumns()
		colsPlain += plain.EvalColumns()
	}
	if colsPruned >= colsPlain {
		t.Errorf("cascade examined %d odometer columns, unpruned fill %d — the block skip never fired",
			colsPruned, colsPlain)
	}
	t.Logf("odometer columns: cascade %d vs plain %d (%.1f%% skipped)",
		colsPruned, colsPlain, 100*(1-float64(colsPruned)/float64(colsPlain)))
}

// cascadeNetworks draws the cascade tests' 24 random networks, k=2 or 3
// with 4 to 13 destinations, alternating the recv-tied palette (where T
// is non-monotone) with the strictly typed one.
func cascadeNetworks() []*model.MulticastSet {
	rng := rand.New(rand.NewSource(31337))
	sets := make([]*model.MulticastSet, 24)
	for trial := range sets {
		k := 2 + rng.Intn(2) // the cascade only exists for k >= 2
		n := 4 + rng.Intn(10)
		if trial%2 == 0 {
			sets[trial] = randTiedSet(rng, n, k)
		} else {
			sets[trial] = randTypedSet(rng, n, k)
		}
	}
	return sets
}

// FuzzCascadePruning fuzzes the count vector (and latency) on a fixed
// recv-tied palette — the non-monotone regime — cross-checking the
// cascade-pruned fill against the skip-disabled fill and the reference
// solver. Values and the optimum must agree.
func FuzzCascadePruning(f *testing.F) {
	f.Add(int64(2), uint8(3), uint8(2), uint8(4))
	f.Add(int64(1), uint8(5), uint8(0), uint8(5))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, latency int64, c0, c1, c2 uint8) {
		if latency <= 0 || latency > 5 {
			t.Skip()
		}
		types := []Type{{Send: 2, Recv: 4}, {Send: 3, Recv: 4}, {Send: 4, Recv: 6}}
		counts := []int{int(c0 % 6), int(c1 % 6), int(c2 % 6)}
		pruned, err := New(latency, types, counts)
		if err != nil {
			t.Skip()
		}
		pruned.FillAll()
		plain, err := New(latency, types, counts)
		if err != nil {
			t.Fatal(err)
		}
		plain.noCascade = true
		plain.FillAll()
		for i := range pruned.value {
			if pruned.value[i] != plain.value[i] {
				t.Fatalf("cascade diverges at %d: value %d/%d (latency %d counts %v)",
					i, pruned.value[i], plain.value[i], latency, counts)
			}
		}
		ref, err := newReference(latency, types, counts)
		if err != nil {
			t.Fatal(err)
		}
		ref.FillAll()
		for s := 0; s < pruned.K(); s++ {
			for st := int64(0); st < pruned.prod; st++ {
				if got, want := pruned.value[pruned.stateIndex(s, st)], ref.Value(s, st); got != want {
					t.Fatalf("state (s=%d, vec=%d): cascade=%d reference=%d (latency %d counts %v)",
						s, st, got, want, latency, counts)
				}
			}
		}
	})
}

// TestParallelFillAllocsBounded pins the w>1 allocation regression: the
// persistent worker pool allocates once per fill (pool, scratches, task),
// not once per layer, so a whole parallel fill stays under a small
// constant alloc budget regardless of layer count. The old per-layer
// spawn cost ~773 allocs on the k=3/n=60 network; the pool costs ~30.
func TestParallelFillAllocsBounded(t *testing.T) {
	const workers = 4
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)

	inst, err := Analyze(benchK3N60Set())
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	dps := make([]*DP, runs)
	for i := range dps {
		if dps[i], err = inst.NewDP(); err != nil {
			t.Fatal(err)
		}
	}
	// testing.AllocsPerRun pins GOMAXPROCS to 1, which would clamp the
	// fill to the sequential path — measure with MemStats instead.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, dp := range dps {
		dp.FillAllParallel(workers)
	}
	runtime.ReadMemStats(&after)
	perFill := float64(after.Mallocs-before.Mallocs) / runs
	if perFill > 54 {
		t.Errorf("FillAllParallel(w=%d) averages %.1f allocs per fill, want <= 54 (per-layer spawn regression)",
			workers, perFill)
	}
	t.Logf("FillAllParallel(w=%d): %.1f allocs per fill", workers, perFill)
}
