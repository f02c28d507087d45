package exact

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// TestIterativeMatchesReferenceRandom cross-checks the layered pruned
// solver against the retained seed recursive solver state for state, and
// against the brute-force oracle where feasible, on randomized instances
// with k in {1,2,3}.
func TestIterativeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(3)
		n := 1 + rng.Intn(7)
		set := randTypedSet(rng, n, k)
		inst, err := Analyze(set)
		if err != nil {
			t.Fatalf("trial %d: Analyze: %v", trial, err)
		}
		dp, err := inst.NewDP()
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		dp.FillAll()
		ref, err := newReference(set.Latency, inst.Types, inst.Counts)
		if err != nil {
			t.Fatalf("trial %d: newReference: %v", trial, err)
		}
		ref.FillAll()
		for s := 0; s < dp.K(); s++ {
			for st := int64(0); st < dp.prod; st++ {
				got := dp.value[dp.stateIndex(s, st)]
				want := ref.Value(s, st)
				if got != want {
					t.Fatalf("trial %d: state (s=%d, vec=%d): iterative=%d reference=%d\nset %+v",
						trial, s, st, got, want, set)
				}
			}
		}
		if n <= MaxBruteForceN {
			opt, err := (&Table{dp: dp}).Lookup(inst.SourceType, inst.Counts)
			if err != nil {
				t.Fatalf("trial %d: Lookup: %v", trial, err)
			}
			bf, err := BruteForceRT(set)
			if err != nil {
				t.Fatalf("trial %d: BruteForceRT: %v", trial, err)
			}
			if opt != bf {
				t.Fatalf("trial %d: iterative=%d brute=%d for %+v", trial, opt, bf, set)
			}
		}
	}
}

// TestNonMonotoneNetworkExact is the regression case for the pruning
// soundness guard: with receive-overhead ties across distinct send
// overheads (legal under model.Validate), T is NOT monotone in the count
// vector — an extra fast relay node lowers the optimum (here
// T(1,[0,0,5]) > T(1,[1,0,5])) — so unguarded crossover pruning returns a
// wrong table value for state (1,[2,3,5]). The fill must detect the
// violation and fall back to the exhaustive column scan.
func TestNonMonotoneNetworkExact(t *testing.T) {
	types := []Type{{Send: 2, Recv: 4}, {Send: 3, Recv: 4}, {Send: 4, Recv: 6}}
	counts := []int{5, 4, 5}
	dp, err := New(2, types, counts)
	if err != nil {
		t.Fatal(err)
	}
	dp.FillAll()
	tbl, err := dp.FinishTable()
	if err != nil {
		t.Fatal(err)
	}
	lo, err := tbl.Lookup(1, []int{0, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := tbl.Lookup(1, []int{1, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if lo <= hi {
		t.Logf("note: instance no longer exhibits non-monotonicity (T=%d vs %d)", lo, hi)
	}
	ref, err := newReference(2, types, counts)
	if err != nil {
		t.Fatal(err)
	}
	ref.FillAll()
	for s := 0; s < dp.K(); s++ {
		for st := int64(0); st < dp.prod; st++ {
			got := dp.value[dp.stateIndex(s, st)]
			want := ref.Value(s, st)
			if got != want {
				t.Fatalf("state (s=%d, vec=%d): iterative=%d reference=%d", s, st, got, want)
			}
		}
	}
	par, err := New(2, types, counts)
	if err != nil {
		t.Fatal(err)
	}
	par.FillAllParallel(4)
	for i := range dp.value {
		if dp.value[i] != par.value[i] {
			t.Fatalf("parallel fill diverges at %d: seq=%d par=%d", i, dp.value[i], par.value[i])
		}
	}
}

// randTiedSet draws nodes from a palette where distinct send overheads can
// share a receive overhead — the regime where T loses monotonicity.
func randTiedSet(rng *rand.Rand, n, numTypes int) *model.MulticastSet {
	palette := make([]model.Node, numTypes)
	send, recv := int64(1), int64(2)
	for i := range palette {
		send += int64(1 + rng.Intn(2))
		if rng.Intn(2) == 0 { // half the steps keep recv tied
			recv += int64(rng.Intn(3))
		}
		if recv < send {
			recv = send
		}
		palette[i] = model.Node{Send: send, Recv: recv}
	}
	nodes := make([]model.Node, n+1)
	for i := range nodes {
		nodes[i] = palette[rng.Intn(numTypes)]
	}
	set := &model.MulticastSet{Latency: int64(1 + rng.Intn(3)), Nodes: nodes}
	if err := set.Validate(); err != nil {
		panic(err)
	}
	return set
}

// TestIterativeMatchesReferenceTiedTypes cross-checks the guarded solver
// on recv-tied palettes, where the monotonicity fallback must engage.
func TestIterativeMatchesReferenceTiedTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(8111))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(2)
		n := 2 + rng.Intn(9)
		set := randTiedSet(rng, n, k)
		inst, err := Analyze(set)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := inst.NewDP()
		if err != nil {
			t.Fatal(err)
		}
		dp.FillAll()
		ref, err := newReference(set.Latency, inst.Types, inst.Counts)
		if err != nil {
			t.Fatal(err)
		}
		ref.FillAll()
		for s := 0; s < dp.K(); s++ {
			for st := int64(0); st < dp.prod; st++ {
				if got, want := dp.value[dp.stateIndex(s, st)], ref.Value(s, st); got != want {
					t.Fatalf("trial %d: state (s=%d, vec=%d): iterative=%d reference=%d\nset %+v",
						trial, s, st, got, want, set)
				}
			}
		}
	}
}

// TestParallelFillMatchesSequential checks FillAllParallel against the
// one-worker fill state for state.
// Run under -race this also exercises the layer-barrier discipline. These
// networks are small enough that every layer runs inline on the
// coordinator; TestParallelPoolMatchesSequential covers the pool.
func TestParallelFillMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4099))
	for trial := 0; trial < 8; trial++ {
		k := 1 + rng.Intn(3)
		set := randTypedSet(rng, 4+rng.Intn(12), k)
		inst, err := Analyze(set)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := inst.NewDP()
		if err != nil {
			t.Fatal(err)
		}
		seq.FillAll()
		par, err := inst.NewDP()
		if err != nil {
			t.Fatal(err)
		}
		par.FillAllParallel(4)
		assertFillsMatch(t, fmt.Sprintf("trial %d", trial), seq, par)
	}
}

// TestParallelPoolMatchesSequential drives networks big enough that their
// middle layers go through the worker pool: the tables-shaped balanced
// k=3, n=48 network, which stays monotone, so the pool runs the crossover
// search throughout; a balanced n=48 network whose pivot monotonicity
// fails at layer 3, before the pool's first layer, so the pool only scans
// columns exhaustively; and a k=3 network whose monotonicity fails only
// after the pool has filled pruned layers, so the pool runs both. At 2
// and 4 workers the values and EvalColumns must equal those of the same
// loop run with one worker.
func TestParallelPoolMatchesSequential(t *testing.T) {
	tables, err := Analyze(benchK3N48Set())
	if err != nil {
		t.Fatal(err)
	}
	const (
		dropsEarly  = iota // before the first pooled layer
		neverDrops         // monotone to the last layer
		dropsInPool        // after at least one pooled, pruned layer
	)
	cases := []struct {
		name    string
		latency int64
		types   []Type
		counts  []int
		drop    int
	}{
		{"tables_k3_n48", 10, tables.Types, tables.Counts, neverDrops},
		{"early_drop_k3_n48", 10, []Type{{4, 6}, {26, 41}, {49, 56}}, []int{16, 16, 16}, dropsEarly},
		{"late_drop_k3_n51", 9, []Type{{4, 5}, {5, 9}, {6, 12}}, []int{15, 20, 16}, dropsInPool},
	}
	for _, c := range cases {
		seq, err := New(c.latency, c.types, c.counts)
		if err != nil {
			t.Fatal(err)
		}
		firstPool := -1 // the first layer big enough for the pool
		for l := 0; l+1 < len(seq.layerOff); l++ {
			if int(seq.layerOff[l+1]-seq.layerOff[l])*seq.Planes() >= smallLayerFill {
				firstPool = l
				break
			}
		}
		if pooled := seq.fillLayers(1); pooled != 0 {
			t.Fatalf("%s w1: %d layers went through a pool", c.name, pooled)
		}
		drop := firstViolation(seq)
		if seq.monotonePivot != (drop < 0) {
			t.Fatalf("%s: monotonePivot %v, but the first violating layer is %d", c.name, seq.monotonePivot, drop)
		}
		got := dropsInPool
		switch {
		case drop < 0:
			got = neverDrops
		case drop < firstPool:
			got = dropsEarly
		}
		if got != c.drop {
			t.Fatalf("%s: monotonicity drops at layer %d (first pooled layer %d), want case %d", c.name, drop, firstPool, c.drop)
		}
		for _, w := range []int{2, 4} {
			par, err := New(c.latency, c.types, c.counts)
			if err != nil {
				t.Fatal(err)
			}
			// fillLayers directly: FillAllParallel would clamp w to
			// GOMAXPROCS.
			pooled := par.fillLayers(w)
			if pooled == 0 {
				t.Fatalf("%s w%d: no layer went through the pool", c.name, w)
			}
			assertFillsMatch(t, fmt.Sprintf("%s w%d", c.name, w), seq, par)
		}
	}
}

// firstViolation returns the lowest layer (destination total) holding a
// state whose value is below its pivot-axis predecessor's, which is the
// layer at whose barrier the fill drops monotonePivot, or -1 if dp's
// filled values are monotone along the pivot.
func firstViolation(dp *DP) int {
	sp := dp.strides[dp.pivot]
	vec := make([]int, dp.K())
	drop := -1
	for st := int64(0); st < dp.prod; st++ {
		dp.decodeVec(st, vec)
		if vec[dp.pivot] == 0 {
			continue
		}
		total := 0
		for _, c := range vec {
			total += c
		}
		for p := range dp.planeSrc {
			idx := int64(p)*dp.prod + st
			if dp.value[idx] < dp.value[idx-sp] && (drop < 0 || total < drop) {
				drop = total
			}
		}
	}
	return drop
}

// assertFillsMatch fails unless par holds exactly seq's values, examined
// column count and monotonicity verdict.
func assertFillsMatch(t *testing.T, name string, seq, par *DP) {
	t.Helper()
	if len(seq.value) != len(par.value) {
		t.Fatalf("%s: state counts differ", name)
	}
	for i := range seq.value {
		if seq.value[i] != par.value[i] {
			t.Fatalf("%s: value[%d]: seq=%d par=%d", name, i, seq.value[i], par.value[i])
		}
	}
	if s, p := seq.EvalColumns(), par.EvalColumns(); s != p {
		t.Fatalf("%s: EvalColumns: seq=%d par=%d", name, s, p)
	}
	if s, p := seq.monotonePivot, par.monotonePivot; s != p {
		t.Fatalf("%s: monotonePivot: seq=%v par=%v", name, s, p)
	}
}

// TestScheduleForLargeInstances verifies reconstruction on instances large
// enough to stress the pruned inner loop: the rebuilt schedule's measured
// RT must equal the DP value.
func TestScheduleForLargeInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 10; trial++ {
		k := 2 + rng.Intn(2)
		set := randTypedSet(rng, 12+rng.Intn(18), k)
		opt, err := OptimalRT(set)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		if err := sch.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := model.RT(sch); got != opt {
			t.Fatalf("trial %d: schedule RT %d != DP %d", trial, got, opt)
		}
	}
}
