package model

import (
	"math/rand"
	"testing"
)

// recvTiedSet builds a set whose types have strictly increasing sends but
// a shared receiving overhead: reception times tie constantly, the
// non-monotone regime that stresses max bookkeeping and tie-sensitive
// comparisons.
func recvTiedSet(rng *rand.Rand, n int) *MulticastSet {
	nodes := make([]Node, n+1)
	for i := range nodes {
		nodes[i] = Node{Send: int64(1 + rng.Intn(4)), Recv: 5}
	}
	set := &MulticastSet{Latency: int64(1 + rng.Intn(2)), Nodes: nodes}
	if err := set.Validate(); err != nil {
		panic(err)
	}
	return set
}

// requireEngineMatches cross-checks every engine observable against a
// from-scratch ComputeTimes.
func requireEngineMatches(t *testing.T, eng *Engine, sch *Schedule, label string) {
	t.Helper()
	want := ComputeTimes(sch)
	if eng.RT() != want.RT || eng.DT() != want.DT {
		t.Fatalf("%s: engine RT/DT = %d/%d, ComputeTimes = %d/%d\ntree %s",
			label, eng.RT(), eng.DT(), want.RT, want.DT, sch)
	}
	var tm Times
	eng.TimesInto(&tm)
	for v := range want.Delivery {
		if tm.Delivery[v] != want.Delivery[v] || tm.Reception[v] != want.Reception[v] {
			t.Fatalf("%s: node %d: engine d/r = %d/%d, ComputeTimes = %d/%d\ntree %s",
				label, v, tm.Delivery[v], tm.Reception[v], want.Delivery[v], want.Reception[v], sch)
		}
	}
	if tm.DT != want.DT || tm.RT != want.RT {
		t.Fatalf("%s: TimesInto DT/RT = %d/%d, want %d/%d", label, tm.DT, tm.RT, want.DT, want.RT)
	}
}

// TestEngineAttachMatchesComputeTimes pins the flat layout's times to the
// recursive definition on random schedules, both correlated-overhead and
// recv-tied sets.
func TestEngineAttachMatchesComputeTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	var eng Engine
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(40)
		var set *MulticastSet
		if trial%3 == 0 {
			set = recvTiedSet(rng, n)
		} else {
			set = randIncrSet(rng, n)
		}
		sch := randIncrSchedule(rng, set)
		eng.Attach(sch)
		requireEngineMatches(t, &eng, sch, "attach")
	}
}

// TestEngineLayout checks the structural invariants the span walks rely
// on: BFS layer order, children contiguous per parent in parent-position
// order, and layer offsets consistent with per-position layers.
func TestEngineLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var eng Engine
	for trial := 0; trial < 20; trial++ {
		set := randIncrSet(rng, 1+rng.Intn(30))
		sch := randIncrSchedule(rng, set)
		eng.Attach(sch)
		if eng.m != len(set.Nodes) {
			t.Fatalf("attached count %d, want %d", eng.m, len(set.Nodes))
		}
		for j := 0; j < eng.m; j++ {
			v := eng.order[j]
			if eng.pos[v] != int32(j) {
				t.Fatalf("pos[order[%d]] = %d", j, eng.pos[v])
			}
			if j > 0 {
				p := eng.parentPos[j]
				if eng.order[p] != sch.Parent(v) {
					t.Fatalf("parentPos mismatch at position %d", j)
				}
				if int(eng.rank[j]) != sch.ChildRank(v) {
					t.Fatalf("rank mismatch at position %d: %d vs %d", j, eng.rank[j], sch.ChildRank(v))
				}
				if eng.layerOf[j] != eng.layerOf[p]+1 {
					t.Fatalf("layer of %d not parent+1", j)
				}
				if int32(j) < eng.kidLo[p] || int32(j) >= eng.kidHi[p] {
					t.Fatalf("position %d outside its parent's children span", j)
				}
			}
			kids := sch.Children(v)
			if int(eng.kidHi[j]-eng.kidLo[j]) != len(kids) {
				t.Fatalf("children span size mismatch at %d", j)
			}
			for i, w := range kids {
				if eng.order[int(eng.kidLo[j])+i] != w {
					t.Fatalf("child order mismatch under %d", v)
				}
			}
			l := int(eng.layerOf[j])
			if int32(j) < eng.layerOff[l] || int32(j) >= eng.layerOff[l+1] {
				t.Fatalf("position %d outside its layer offsets", j)
			}
		}
	}
}

// applyMove performs mv on sch the way the heuristics do, returning an
// undo closure.
func applyMove(t *testing.T, sch *Schedule, mv Move) func() {
	t.Helper()
	switch mv.Kind {
	case MoveSwap:
		if err := sch.SwapNodes(mv.A, mv.B); err != nil {
			t.Fatal(err)
		}
		return func() {
			if err := sch.SwapNodes(mv.A, mv.B); err != nil {
				t.Fatal(err)
			}
		}
	case MoveRelocate:
		oldParent, oldIdx, err := sch.RemoveLeaf(mv.A)
		if err != nil {
			t.Fatal(err)
		}
		if err := sch.InsertChild(mv.B, mv.A, len(sch.Children(mv.B))); err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, _, err := sch.RemoveLeaf(mv.A); err != nil {
				t.Fatal(err)
			}
			if err := sch.InsertChild(oldParent, mv.A, oldIdx); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Fatalf("unknown move kind %d", mv.Kind)
	return nil
}

// neighborhood generates every swap pair and every (leaf, target)
// relocation valid on sch, in the heuristics' scan order.
func neighborhood(sch *Schedule) []Move {
	n := len(sch.Set.Nodes)
	var moves []Move
	for a := 1; a < n; a++ {
		for b := a + 1; b < n; b++ {
			moves = append(moves, SwapMove(a, b))
		}
	}
	for v := 1; v < n; v++ {
		if !sch.IsLeaf(v) {
			continue
		}
		for p := 0; p < n; p++ {
			if p == v || NodeID(p) == sch.Parent(v) {
				continue
			}
			moves = append(moves, RelocateMove(v, p))
		}
	}
	return moves
}

// TestEvalMovesMatchesMutateAndRecompute scores whole neighborhoods with
// EvalMoves and cross-checks each candidate against actually applying the
// move and recomputing from scratch — on correlated and recv-tied random
// networks, random tree shapes, swap pairs of every nesting relation
// (disjoint, siblings, ancestor-descendant) and all leaf relocations.
func TestEvalMovesMatchesMutateAndRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	var eng Engine
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(18)
		var set *MulticastSet
		if trial%2 == 0 {
			set = recvTiedSet(rng, n)
		} else {
			set = randIncrSet(rng, n)
		}
		sch := randIncrSchedule(rng, set)
		eng.Attach(sch)
		moves := neighborhood(sch)
		out := make([]int64, len(moves))
		eng.EvalMoves(moves, out)
		for i, mv := range moves {
			dt, rt := eng.Eval(mv)
			if rt != out[i] {
				t.Fatalf("Eval and EvalMoves disagree on move %v: %d vs %d", mv, rt, out[i])
			}
			undo := applyMove(t, sch, mv)
			want := ComputeTimes(sch)
			if rt != want.RT || dt != want.DT {
				t.Fatalf("trial %d move %v: eval DT/RT = %d/%d, mutate+recompute = %d/%d\ntree after move %s",
					trial, mv, dt, rt, want.DT, want.RT, sch)
			}
			undo()
		}
		// The engine must be untouched by the whole evaluation pass.
		requireEngineMatches(t, &eng, sch, "post-eval")
	}
}

// TestEngineTracksAppliedMoves interleaves evaluation, application and
// re-attachment the way the heuristics drive the engine.
func TestEngineTracksAppliedMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var eng Engine
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(20)
		set := randIncrSet(rng, n)
		sch := randIncrSchedule(rng, set)
		eng.Attach(sch)
		for step := 0; step < 40; step++ {
			moves := neighborhood(sch)
			mv := moves[rng.Intn(len(moves))]
			_, rt := eng.Eval(mv)
			applyMove(t, sch, mv)
			if mv.Kind == MoveSwap && step%2 == 0 {
				eng.CommitSwap(mv.A, mv.B) // in-place commit path
			} else {
				eng.Attach(sch)
			}
			if eng.RT() != rt {
				t.Fatalf("step %d: eval predicted RT %d, applied RT %d", step, rt, eng.RT())
			}
			requireEngineMatches(t, &eng, sch, "applied")
		}
	}
}

// raceEnabled reports a -race build; race_test.go sets it.
var raceEnabled bool

// TestEngineSteadyStateAllocFree pins the satellite regression: repeated
// Attach, whole-neighborhood EvalMoves and Pinned (swaps and relocations)
// and CommitSwap on a warmed engine, and EvalTimes on its pooled engines,
// allocate nothing under every cost model, bound in the value and the
// pointer form, including across nearby instance sizes (the power-of-two
// scratch growth).
func TestEngineSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	set := randIncrSet(rng, 48)
	small := randIncrSet(rng, 41)
	pipe, node := PipelineModel{Segments: 4}, NodeModel{Lambda: 2}
	models := []CostModel{
		nil,
		randLinkModel(rng, len(set.Nodes)),
		pipe, &pipe,
		ReduceModel{}, &ReduceModel{},
		BarrierModel{}, &BarrierModel{},
		node, &node,
	}
	for _, cm := range models {
		t.Run(modelLabel(cm), func(t *testing.T) {
			sch := randIncrSchedule(rng, set)
			sch.BindModel(cm)
			var eng Engine
			eng.Attach(sch)
			moves := neighborhood(sch)
			out := make([]int64, len(moves))
			if allocs := testing.AllocsPerRun(20, func() { eng.Attach(sch) }); allocs != 0 {
				t.Errorf("Attach allocates %.1f per call after warmup", allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() { eng.EvalMoves(moves, out) }); allocs != 0 {
				t.Errorf("EvalMoves allocates %.1f per call after warmup", allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				eng.CommitSwap(1, 2)
				eng.CommitSwap(1, 2)
			}); allocs != 0 {
				t.Errorf("CommitSwap allocates %.1f per call pair", allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				eng.Attach(sch) // the first Pinned after it rebuilds the index
				for _, mv := range moves {
					eng.Pinned(mv)
				}
			}); allocs != 0 {
				t.Errorf("Attach and a neighborhood of Pinned allocate %.1f per pass", allocs)
			}
			// The race detector drops a quarter of sync.Pool puts, so
			// EvalTimes's pooled engine is only steady without it.
			var tm Times
			if err := EvalTimes(sch, &tm); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(20, func() { _ = EvalTimes(sch, &tm) }); allocs != 0 && !raceEnabled {
				t.Errorf("EvalTimes allocates %.1f per call after warmup", allocs)
			}
			// Alternating between nearby sizes must not reallocate either:
			// the scratch growth rounds capacities up. The link model's
			// matrix is sized for one instance, so it stays on set.
			if _, ok := cm.(*LinkModel); ok {
				return
			}
			smallSch := randIncrSchedule(rng, small)
			smallSch.BindModel(cm)
			eng.Attach(smallSch)
			eng.Attach(sch)
			if allocs := testing.AllocsPerRun(20, func() {
				eng.Attach(smallSch)
				eng.Pinned(SwapMove(1, 2))
				eng.Attach(sch)
				eng.Pinned(SwapMove(1, 2))
			}); allocs != 0 {
				t.Errorf("size-alternating Attach allocates %.1f per call pair", allocs)
			}
		})
	}
}

// TestResizeInt64RoundsCapacityUp pins the power-of-two growth policy.
func TestResizeInt64RoundsCapacityUp(t *testing.T) {
	s := resizeInt64(nil, 10)
	if len(s) != 10 || cap(s) != 16 {
		t.Fatalf("resizeInt64(nil, 10): len %d cap %d, want 10/16", len(s), cap(s))
	}
	grown := resizeInt64(s, 16)
	if &grown[0] != &s[0] {
		t.Error("growth within capacity reallocated")
	}
	shrunk := resizeInt64(grown, 3)
	if cap(shrunk) != 16 || &shrunk[0] != &s[0] {
		t.Error("shrink reallocated")
	}
}

// BenchmarkEvalMovesNeighborhood measures the batched candidate scoring
// the heuristics run on: a full swap neighborhood per op.
func BenchmarkEvalMovesNeighborhood(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	set := randIncrSet(rng, 64)
	sch := randIncrSchedule(rng, set)
	var eng Engine
	eng.Attach(sch)
	moves := neighborhood(sch)
	out := make([]int64, len(moves))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.EvalMoves(moves, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(moves)), "ns/move")
}
