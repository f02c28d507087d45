package model

import (
	"math/rand"
	"reflect"
	"testing"
)

// randLinkModel draws a latency matrix with entries in [1, 40] (zero
// diagonal), the shape GenerateClustered produces without depending on
// package wan (which imports this one).
func randLinkModel(rng *rand.Rand, n int) *LinkModel {
	lat := make([][]int64, n)
	for u := range lat {
		lat[u] = make([]int64, n)
		for v := range lat[u] {
			if u != v {
				lat[u][v] = 1 + rng.Int63n(40)
			}
		}
	}
	return &LinkModel{Lat: lat}
}

// pickModel maps a fuzzer byte to a cost model over n nodes. Bit 7 picks
// the pointer form of the value-receiver models: the service and the CLIs
// bind &PipelineModel{}, &ReduceModel{} and &BarrierModel{}, so the
// engine's dispatch must treat both forms alike.
func pickModel(rng *rand.Rand, sel byte, n int) CostModel {
	ptr := sel&0x80 != 0
	sel &= 0x7f
	var cm CostModel
	switch sel % 5 {
	case 0:
		return randLinkModel(rng, n)
	case 1:
		m := PipelineModel{Segments: 1 + int(sel/5)%6}
		cm = m
		if ptr {
			cm = &m
		}
	case 2:
		cm = ReduceModel{}
		if ptr {
			cm = &ReduceModel{}
		}
	case 3:
		cm = BarrierModel{}
		if ptr {
			cm = &BarrierModel{}
		}
	default:
		m := NodeModel{Lambda: int64(sel / 5 % 7)}
		cm = m
		if ptr {
			cm = &m
		}
	}
	return cm
}

// modelLabel names a model for subtests: its Name, with "-ptr" on the
// pointer form of a value-receiver model.
func modelLabel(cm CostModel) string {
	if cm == nil {
		return "base"
	}
	if _, link := cm.(*LinkModel); !link && reflect.TypeOf(cm).Kind() == reflect.Pointer {
		return cm.Name() + "-ptr"
	}
	return cm.Name()
}

func sameTimes(t *testing.T, what string, got, want *Times) {
	t.Helper()
	if got.DT != want.DT || got.RT != want.RT {
		t.Fatalf("%s: engine DT/RT = %d/%d, reference %d/%d", what, got.DT, got.RT, want.DT, want.RT)
	}
	for v := range want.Delivery {
		if got.Delivery[v] != want.Delivery[v] || got.Reception[v] != want.Reception[v] {
			t.Fatalf("%s: node %d engine d/r = %d/%d, reference %d/%d",
				what, v, got.Delivery[v], got.Reception[v], want.Delivery[v], want.Reception[v])
		}
	}
}

// FuzzCostModelEngine drives random schedules bound to fuzzer-chosen cost
// models through move sequences, pinning the engine — Eval's move
// predictions, CommitSwap's incremental state, and TimesInto after
// re-attach — bit-identically to the from-scratch refEval at every step,
// and checks that no move Pinned reports lowers RT.
// This is the seam the heuristics stand on when they optimize WAN,
// pipelined or collective objectives.
func FuzzCostModelEngine(f *testing.F) {
	f.Add(uint64(1), byte(0), []byte{0, 1, 2})
	f.Add(uint64(7), byte(1), []byte{1, 3, 0, 0, 2, 5})
	f.Add(uint64(42), byte(2), []byte{0, 1, 2, 1, 4, 0, 0, 3, 3})
	f.Add(uint64(9), byte(3), []byte{2, 9, 9, 1, 1, 1, 0, 0, 0})
	f.Add(uint64(23), byte(4), []byte{0, 2, 4, 1, 5, 1})
	f.Add(uint64(5), byte(6), []byte{0, 1, 3, 0, 2, 6, 1, 4, 0})
	f.Add(uint64(13), byte(0x80|16), []byte{1, 2, 0, 0, 1, 3, 1, 5, 2})
	f.Add(uint64(17), byte(0x80|2), []byte{1, 4, 0, 0, 2, 3, 1, 1, 4})
	f.Add(uint64(31), byte(0x80|3), []byte{0, 5, 1, 1, 3, 2, 1, 6, 0})
	f.Fuzz(func(t *testing.T, seed uint64, sel byte, ops []byte) {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 2 + int(seed%22)
		set := randIncrSet(rng, n) // n destinations + the source
		sch := randIncrSchedule(rng, set)
		cm := pickModel(rng, sel, len(set.Nodes))
		sch.BindModel(cm)

		var ref, got Times
		var eng Engine
		eng.Attach(sch)
		check := func(what string) {
			t.Helper()
			if err := refEval(cm, sch, &ref); err != nil {
				t.Fatal(err)
			}
			if eng.DT() != ref.DT || eng.RT() != ref.RT {
				t.Fatalf("%s: engine DT/RT = %d/%d, reference %d/%d", what, eng.DT(), eng.RT(), ref.DT, ref.RT)
			}
			eng.TimesInto(&got)
			sameTimes(t, what, &got, &ref)
		}
		check("attach")
		out := make([]int64, 1)
		for i := 0; i+2 < len(ops); i += 3 {
			kind, x, y := ops[i], 1+int(ops[i+1])%n, 1+int(ops[i+2])%n
			if x == y {
				continue
			}
			var mv Move
			if kind%2 == 0 {
				mv = SwapMove(x, y)
			} else {
				if !sch.IsLeaf(x) {
					continue
				}
				target := NodeID(int(ops[i+2]) % (n + 1))
				if target == x || target == sch.Parent(x) {
					continue
				}
				if target != 0 && sch.Parent(target) == -1 {
					continue
				}
				mv = RelocateMove(x, target)
			}
			eng.EvalMoves([]Move{mv}, out)
			evalDT, evalRT := eng.Eval(mv)
			if evalRT != out[0] {
				t.Fatalf("Eval %d vs EvalMoves %d for %v", evalRT, out[0], mv)
			}
			if eng.Pinned(mv) && evalRT < eng.RT() {
				t.Fatalf("%s %v on %q is pinned but lowers RT %d to %d", kindName(mv.Kind), mv, cm.Name(), eng.RT(), evalRT)
			}
			// Apply the move as the heuristics do and pin the engine's
			// prediction to the reference evaluation of the mutated tree.
			if mv.Kind == MoveSwap {
				if err := sch.SwapNodes(mv.A, mv.B); err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 {
					eng.CommitSwap(mv.A, mv.B)
				} else {
					eng.Attach(sch)
				}
			} else {
				if _, _, err := sch.RemoveLeaf(mv.A); err != nil {
					t.Fatal(err)
				}
				if err := sch.InsertChild(mv.B, mv.A, len(sch.Children(mv.B))); err != nil {
					t.Fatal(err)
				}
				eng.Attach(sch)
			}
			if err := refEval(cm, sch, &ref); err != nil {
				t.Fatal(err)
			}
			if evalDT != ref.DT || evalRT != ref.RT {
				t.Fatalf("%s %v on %q: Eval predicted DT/RT = %d/%d, reference after apply %d/%d",
					kindName(mv.Kind), mv, cm.Name(), evalDT, evalRT, ref.DT, ref.RT)
			}
			check(cm.Name())
		}
	})
}

func kindName(k MoveKind) string {
	if k == MoveSwap {
		return "swap"
	}
	return "relocate"
}

// TestEngineMatchesEvalIntoPerModel is the deterministic slice of the
// fuzz target: one mid-size random schedule per model, in both the value
// and the pointer form, through attach, a swap commit and a relocate
// re-attach, with every prediction and state pinned to the from-scratch
// refEval.
func TestEngineMatchesEvalIntoPerModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	set := randIncrSet(rng, 14)
	pipe, node := PipelineModel{Segments: 8}, NodeModel{Lambda: 3}
	models := []CostModel{
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
			var ref, got Times
			check := func(what string, predDT, predRT int64) {
				t.Helper()
				if err := refEval(cm, sch, &ref); err != nil {
					t.Fatal(err)
				}
				if predDT != ref.DT || predRT != ref.RT {
					t.Fatalf("%s: predicted DT/RT = %d/%d, reference %d/%d", what, predDT, predRT, ref.DT, ref.RT)
				}
				if eng.DT() != ref.DT || eng.RT() != ref.RT {
					t.Fatalf("%s: engine DT/RT = %d/%d, reference %d/%d", what, eng.DT(), eng.RT(), ref.DT, ref.RT)
				}
				eng.TimesInto(&got)
				sameTimes(t, what, &got, &ref)
			}
			check("attach", eng.DT(), eng.RT())

			dt, rt := eng.Eval(SwapMove(1, 2))
			if err := sch.SwapNodes(1, 2); err != nil {
				t.Fatal(err)
			}
			eng.CommitSwap(1, 2)
			check("swap", dt, rt)

			// Relocate the deepest leaf under the root: the leaf leaves its
			// parent's children list and becomes the root's last child.
			depth := func(v NodeID) int {
				d := 0
				for ; v != 0; v = sch.Parent(v) {
					d++
				}
				return d
			}
			leaf := NodeID(-1)
			for v := 1; v < len(set.Nodes); v++ {
				if sch.IsLeaf(v) && sch.Parent(v) != 0 && (leaf < 0 || depth(v) > depth(leaf)) {
					leaf = v
				}
			}
			if leaf < 0 {
				t.Fatal("no leaf below the root's children")
			}
			mv := RelocateMove(leaf, 0)
			dt, rt = eng.Eval(mv)
			if _, _, err := sch.RemoveLeaf(mv.A); err != nil {
				t.Fatal(err)
			}
			if err := sch.InsertChild(mv.B, mv.A, len(sch.Children(mv.B))); err != nil {
				t.Fatal(err)
			}
			eng.Attach(sch)
			check("relocate", dt, rt)
		})
	}
}

// randPartialSchedule attaches destinations 1..keep-1, each under a
// uniformly drawn node attached before it, and returns the schedule with
// its attached nodes in attachment order.
func randPartialSchedule(rng *rand.Rand, set *MulticastSet, keep int) (*Schedule, []NodeID) {
	sch := NewSchedule(set)
	attached := []NodeID{0}
	for v := 1; v < keep; v++ {
		sch.MustAddChild(attached[rng.Intn(len(attached))], v)
		attached = append(attached, v)
	}
	return sch, attached
}

// attachedMoves lists every swap of two attached destinations and every
// relocation of an attached leaf under another attached node, its own
// parent included (the relocation to the tail of its own children).
func attachedMoves(sch *Schedule, attached []NodeID) []Move {
	var moves []Move
	for i, a := range attached[1:] {
		for _, b := range attached[i+2:] {
			moves = append(moves, SwapMove(a, b))
		}
	}
	for _, v := range attached[1:] {
		if !sch.IsLeaf(v) {
			continue
		}
		for _, p := range attached {
			if p != v {
				moves = append(moves, RelocateMove(v, p))
			}
		}
	}
	return moves
}

// TestEvalMovesMatchesEvalIntoPerModel scores whole neighborhoods under
// every model in both forms — all swaps, and every leaf relocation
// including one back to the tail of its own parent — and pins each
// prediction to applying the move and re-evaluating with refEval. Some
// schedules leave destinations unattached (the barrier offsets their
// times too). The engine must be untouched by the whole pass.
func TestEvalMovesMatchesEvalIntoPerModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var eng Engine
	var ref, got Times
	for trial := 0; trial < 120; trial++ {
		set := randIncrSet(rng, 2+rng.Intn(16))
		n := len(set.Nodes)
		cm := pickModel(rng, byte(rng.Intn(256)), n)
		keep := n
		if trial%3 == 0 {
			keep = 2 + rng.Intn(n-1)
		}
		sch, attached := randPartialSchedule(rng, set, keep)
		sch.BindModel(cm)
		eng.Attach(sch)
		moves := attachedMoves(sch, attached)
		out := make([]int64, len(moves))
		eng.EvalMoves(moves, out)
		for i, mv := range moves {
			dt, rt := eng.Eval(mv)
			if rt != out[i] {
				t.Fatalf("Eval and EvalMoves disagree on %v: %d vs %d", mv, rt, out[i])
			}
			undo := applyMove(t, sch, mv)
			if err := refEval(cm, sch, &ref); err != nil {
				t.Fatal(err)
			}
			if dt != ref.DT || rt != ref.RT {
				t.Fatalf("trial %d %s %s %v: eval DT/RT = %d/%d, reference after apply %d/%d\ntree after move %s",
					trial, cm.Name(), kindName(mv.Kind), mv, dt, rt, ref.DT, ref.RT, sch)
			}
			undo()
		}
		if err := refEval(cm, sch, &ref); err != nil {
			t.Fatal(err)
		}
		if eng.DT() != ref.DT || eng.RT() != ref.RT {
			t.Fatalf("trial %d %s: engine DT/RT after the pass = %d/%d, reference %d/%d", trial, cm.Name(), eng.DT(), eng.RT(), ref.DT, ref.RT)
		}
		eng.TimesInto(&got)
		sameTimes(t, cm.Name()+" post-eval", &got, &ref)
	}
}

// TestBindModelGuards pins the satellite-2 contract at the package level:
// a schedule bound to a non-base model must not be scorable through the
// base-model helpers that silently ignore the model, and the batch lane
// engine (base-only by construction) must refuse it outright.
func TestBindModelGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	set := randIncrSet(rng, 6)
	sch := randIncrSchedule(rng, set)
	sch.BindModel(randLinkModel(rng, len(set.Nodes)))

	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a wan-bound schedule did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("model.RT", func() { RT(sch) })
	mustPanic("model.ComputeTimes", func() { ComputeTimes(sch) })
	mustPanic("BatchEngine.Attach", func() { new(BatchEngine).Attach(sch, 1) })

	// The model-dispatching entry point still works, and clones carry the
	// binding with them.
	var tm Times
	if err := EvalTimes(sch, &tm); err != nil {
		t.Fatal(err)
	}
	if cl := sch.Clone(); cl.Model() != sch.Model() {
		t.Fatal("Clone dropped the model binding")
	}
	mustPanic("model.RT on a clone", func() { RT(sch.Clone()) })
}

// TestPipelineSegmentsBounded: an oversized segment count is refused by
// CheckSegments and Validate (TestEvalTimesRejectsUnevaluableModels
// covers EvalTimes), and Segments × the set's cost bound must stay
// within MaxCost.
func TestPipelineSegmentsBounded(t *testing.T) {
	for _, m := range []int{0, -1, MaxSegments + 1, 1 << 40} {
		if CheckSegments(m) == nil {
			t.Errorf("CheckSegments(%d) accepted", m)
		}
	}
	for _, m := range []int{1, MaxSegments} {
		if err := CheckSegments(m); err != nil {
			t.Errorf("CheckSegments(%d): %v", m, err)
		}
	}

	rng := rand.New(rand.NewSource(5))
	set := randIncrSet(rng, 6)
	huge := PipelineModel{Segments: 1 << 40}
	if huge.Validate(set) == nil {
		t.Error("Validate accepted 1<<40 segments")
	}

	// Cost bound 2 × (1 + 1 + L) = MaxCost/2 rounded down: two segments
	// fit, four do not.
	big := &MulticastSet{Latency: MaxCost/4 - 2, Nodes: []Node{{Send: 1, Recv: 1}, {Send: 1, Recv: 1}}}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (PipelineModel{Segments: 2}).Validate(big); err != nil {
		t.Errorf("2 segments within the cost bound rejected: %v", err)
	}
	if (PipelineModel{Segments: 4}).Validate(big) == nil {
		t.Error("4 segments × the cost bound past MaxCost accepted")
	}
}

// TestEvalTimesRejectsUnevaluableModels: a model that cannot be
// evaluated on the bound schedule's set — 1<<40 pipeline segments, a
// latency matrix sized for one node fewer — is an error from EvalTimes,
// not a panic, and it is reported before any engine scratch is sized:
// EvalTimes allocates no more than building the error itself does.
func TestEvalTimesRejectsUnevaluableModels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	set := randIncrSet(rng, 6)
	for _, cm := range []CostModel{
		PipelineModel{Segments: 1 << 40},
		&PipelineModel{Segments: 1 << 40},
		randLinkModel(rng, len(set.Nodes)-1),
	} {
		sch := randIncrSchedule(rng, set)
		sch.BindModel(cm)
		var tm Times
		if err := EvalTimes(sch, &tm); err == nil {
			t.Errorf("%s: EvalTimes accepted a model it cannot evaluate", modelLabel(cm))
		}
		if cap(tm.Delivery) != 0 || cap(tm.Reception) != 0 {
			t.Errorf("%s: EvalTimes sized the times before rejecting", modelLabel(cm))
		}
		// fmt builds the error from a sync.Pool, which the race detector
		// drains at random, so the counts only compare without it.
		errAllocs := testing.AllocsPerRun(20, func() { _, _ = cm.recurrence(set) })
		if allocs := testing.AllocsPerRun(20, func() { _ = EvalTimes(sch, &tm) }); allocs > errAllocs && !raceEnabled {
			t.Errorf("%s: EvalTimes allocates %.1f before rejecting, its error %.1f", modelLabel(cm), allocs, errAllocs)
		}
	}
}

// TestLatencyTermsBounded: the link model's largest off-diagonal latency
// and the node model's lambda stand in for the set's latency in its cost
// bound, so n·(max send + max recv + that latency) must stay within
// MaxCost. On two unit nodes the edge is latency MaxCost/2 - 2.
func TestLatencyTermsBounded(t *testing.T) {
	set := &MulticastSet{Latency: 1, Nodes: []Node{{Send: 1, Recv: 1}, {Send: 1, Recv: 1}}}
	edge := int64(MaxCost/2 - 2)
	for _, c := range []struct {
		lat int64
		ok  bool
	}{{edge, true}, {edge + 1, false}, {1 << 62, false}} {
		link := &LinkModel{Lat: [][]int64{{0, c.lat}, {1, 0}}}
		if err := link.Validate(set); (err == nil) != c.ok {
			t.Errorf("LinkModel latency %d: Validate = %v, want ok=%v", c.lat, err, c.ok)
		}
		if err := (NodeModel{Lambda: c.lat}).Validate(set); (err == nil) != c.ok {
			t.Errorf("NodeModel lambda %d: Validate = %v, want ok=%v", c.lat, err, c.ok)
		}
	}
}
