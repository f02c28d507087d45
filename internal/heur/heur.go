// Package heur explores the paper's Section 5 future-work direction
// "other polynomial time approximation algorithms": alternative
// construction orders, hill-climbing local search over schedule trees, and
// simulated annealing. All implement model.Scheduler so the harness can
// pit them against greedy and the exact DP (experiment E11).
package heur

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/model"
)

// SlowestFirst runs the greedy insertion loop with destinations sorted in
// NON-increasing order of overhead: slow nodes take early delivery slots
// (good for their large receiving overheads) at the price of using slow
// nodes as relays. A natural foil to the paper's fastest-first order.
type SlowestFirst struct{}

// Name implements model.Scheduler.
func (SlowestFirst) Name() string { return "slowest-first" }

// Schedule implements model.Scheduler.
func (SlowestFirst) Schedule(set *model.MulticastSet) (*model.Schedule, error) {
	order := set.SortedDestinations()
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return core.ScheduleOrder(set, order)
}

// LocalSearch hill-climbs from a base scheduler's tree using two move
// types: swapping the tree positions of two destinations, and relocating
// a leaf to the end of another node's children list. First-improvement
// with deterministic scan order; stops at a local optimum or MaxRounds.
type LocalSearch struct {
	// Base produces the starting schedule (default: greedy+leafrev, or the
	// model-aware greedy when Model is set).
	Base model.Scheduler
	// MaxRounds bounds the improvement passes (default 50).
	MaxRounds int
	// Model is the cost model to optimize (nil or BaseModel: the base
	// receive-send objective). A model bound to the base schedule is
	// adopted when Model is unset.
	Model model.CostModel
}

// Name implements model.Scheduler.
func (l LocalSearch) Name() string { return "local-search" }

// Schedule implements model.Scheduler.
//
// The search runs on model.Engine: each round streams the ordered swap
// (then relocation) neighborhood through a 64-move buffer scored with
// batched EvalMoves against the flat structure-of-arrays layout — no candidate
// mutates the schedule, so there is nothing to undo and a rejected move
// costs one subtree span walk. The first strictly improving candidate in
// scan order is applied, exactly the first-improvement rule of the
// mutate-and-undo loop this replaces, so results are bit-identical to it
// (pinned by the parity suite).
//
// Before scoring, every candidate asks Engine.Pinned whether it leaves
// the reception time of some node attaining RT unchanged. Such a move
// cannot make RT strictly smaller, so it is skipped unscored; it would
// never have been accepted, and the trees stay bit-identical to the
// unpruned scan. Nearly every move of a search that has reached its local
// optimum is of this kind.
func (l LocalSearch) Schedule(set *model.MulticastSet) (*model.Schedule, error) {
	cm := l.Model
	base := l.Base
	if base == nil {
		if model.IsBase(cm) {
			base = core.Greedy{Reversal: true}
		} else {
			base = ModelGreedy{Model: cm, Reversal: true}
		}
	}
	rounds := l.MaxRounds
	if rounds <= 0 {
		rounds = 50
	}
	sch, err := base.Schedule(set)
	if err != nil {
		return nil, err
	}
	if model.IsBase(cm) {
		cm = sch.Model() // adopt a base scheduler's model binding
	} else {
		sch.BindModel(cm)
	}
	// Under a type-symmetric model swapping two occupants with equal
	// overheads cannot change any time, so those pairs are pruned before
	// evaluation; the link model's latency terms break that symmetry.
	skipSame := model.IsBase(cm) || cm.TypeSymmetric()
	var eng model.Engine
	eng.Attach(sch)
	nodes := set.Nodes
	n := len(nodes)
	scan := firstImprover{eng: &eng, cur: eng.RT()}
	for round := 0; round < rounds; round++ {
		// Move 1: swap tree positions of destination pairs.
		scan.reset()
	swaps:
		for a := 1; a < n; a++ {
			na := nodes[a]
			for b := a + 1; b < n; b++ {
				if skipSame && na.Send == nodes[b].Send && na.Recv == nodes[b].Recv {
					continue // same overheads: swap cannot change times
				}
				mv := model.SwapMove(a, b)
				if eng.Pinned(mv) {
					continue // keeps a critical reception: cannot improve
				}
				if scan.push(mv) {
					break swaps
				}
			}
		}
		if scan.found() {
			mv := scan.move
			if err := sch.SwapNodes(mv.A, mv.B); err != nil {
				return nil, err
			}
			eng.CommitSwap(mv.A, mv.B)
			continue
		}
		// Move 2: relocate any leaf to the end of another node's children
		// list (later siblings at the old parent shift one rank earlier).
		scan.reset()
	relocs:
		for v := 1; v < n; v++ {
			leaf := model.NodeID(v)
			if !sch.IsLeaf(leaf) {
				continue
			}
			parent := sch.Parent(leaf)
			for p := 0; p < n; p++ {
				target := model.NodeID(p)
				if p == v || target == parent {
					continue
				}
				mv := model.RelocateMove(leaf, target)
				if eng.Pinned(mv) {
					continue
				}
				if p != 0 && sch.Parent(target) == -1 {
					continue
				}
				if scan.push(mv) {
					break relocs
				}
			}
		}
		if !scan.found() {
			break // local optimum
		}
		mv := scan.move
		if _, _, err := sch.RemoveLeaf(mv.A); err != nil {
			return nil, err
		}
		if err := sch.InsertChild(mv.B, mv.A, len(sch.Children(mv.B))); err != nil {
			return nil, err
		}
		eng.Attach(sch)
	}
	if err := sch.Validate(); err != nil {
		return nil, fmt.Errorf("heur: local search corrupted the schedule: %w", err)
	}
	return sch, nil
}

// firstImprover streams a neighborhood in scan order through one
// 64-move buffer, scoring each full buffer with a batched EvalMoves, and
// stops at the first candidate strictly better than cur. The scan keeps
// the early exit of a first-improvement search without ever holding the
// whole neighborhood. A found candidate becomes the new cur.
type firstImprover struct {
	eng  *model.Engine
	cur  int64
	buf  [64]model.Move
	out  [64]int64
	n    int
	hit  bool
	move model.Move
}

// reset starts a new scan from the current incumbent.
func (f *firstImprover) reset() { f.n, f.hit = 0, false }

// push queues mv and reports whether the scan has found its improving
// candidate (the caller then stops generating).
func (f *firstImprover) push(mv model.Move) bool {
	f.buf[f.n] = mv
	f.n++
	if f.n == len(f.buf) {
		f.flush()
	}
	return f.hit
}

// found scores any queued remainder and reports whether an improving
// candidate was found; it is then in f.move, with its RT in f.cur.
func (f *firstImprover) found() bool {
	if !f.hit && f.n > 0 {
		f.flush()
	}
	return f.hit
}

func (f *firstImprover) flush() {
	o := f.out[:f.n]
	f.eng.EvalMoves(f.buf[:f.n], o)
	f.n = 0
	for i, rt := range o {
		if rt < f.cur {
			f.move, f.cur, f.hit = f.buf[i], rt, true
			return
		}
	}
}

// Annealing is a seeded simulated-annealing scheduler: random swap /
// relocate moves with an exponential cooling schedule, starting from
// greedy+leafrev. Deterministic for a fixed Seed.
type Annealing struct {
	// Seed drives the RNG (default 1).
	Seed int64
	// Iters is the number of proposed moves (default 2000).
	Iters int
	// T0 is the initial temperature in time units (default: 10% of the
	// starting completion time).
	T0 float64
	// Base produces the starting schedule (default: greedy+leafrev, or the
	// model-aware greedy when Model is set).
	Base model.Scheduler
	// Model is the cost model to optimize (nil or BaseModel: the base
	// receive-send objective). A model bound to the base schedule is
	// adopted when Model is unset.
	Model model.CostModel
}

// Name implements model.Scheduler.
func (a Annealing) Name() string { return "annealing" }

// Schedule implements model.Scheduler.
func (a Annealing) Schedule(set *model.MulticastSet) (*model.Schedule, error) {
	iters := a.Iters
	if iters <= 0 {
		iters = defaultAnnealIters
	}
	seed := a.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	cm := a.Model
	base := a.Base
	if base == nil {
		if model.IsBase(cm) {
			base = core.Greedy{Reversal: true}
		} else {
			base = ModelGreedy{Model: cm, Reversal: true}
		}
	}
	sch, err := base.Schedule(set)
	if err != nil {
		return nil, err
	}
	if model.IsBase(cm) {
		cm = sch.Model() // adopt a base scheduler's model binding
	} else {
		sch.BindModel(cm)
	}
	skipSame := model.IsBase(cm) || cm.TypeSymmetric()
	n := len(set.Nodes)
	if n <= 2 {
		return sch, nil
	}
	// Engine-backed evaluation plus pooled undo bookkeeping: a proposed
	// swap is scored against the flat layout without touching the
	// schedule, so rejected moves (the vast majority once the temperature
	// drops) cost one span walk and no undo; only accepted moves mutate
	// and re-attach. The incumbent best stays a single preallocated
	// snapshot refreshed in place (CopyFrom). The proposal and acceptance
	// sequence is bit-identical to the mutate-and-undo loop this replaces
	// (pinned by the parity suite).
	var eng model.Engine
	eng.Attach(sch)
	cur := float64(eng.RT())
	best := sch.Clone()
	bestRT := cur
	t0 := a.T0
	if t0 <= 0 {
		t0 = cur * 0.1
	}
	if t0 < 1 {
		t0 = 1
	}
	for i := 0; i < iters; i++ {
		// Propose a random swap of two distinct destinations; same-type
		// pairs are rejected before any evaluation (the swap cannot change
		// times).
		x := 1 + rng.Intn(n-1)
		y := 1 + rng.Intn(n-1)
		if x == y || (skipSame && set.Nodes[x] == set.Nodes[y]) {
			continue
		}
		_, rtInt := eng.Eval(model.SwapMove(x, y))
		rt := float64(rtInt)
		accept := rt <= cur
		if !accept {
			// Only an uphill move reads the temperature.
			temp := t0 * cooling(i)
			if temp < 1e-3 {
				temp = 1e-3
			}
			accept = rng.Float64() < math.Exp((cur-rt)/temp)
		}
		if accept {
			if err := sch.SwapNodes(model.NodeID(x), model.NodeID(y)); err != nil {
				return nil, err
			}
			eng.CommitSwap(model.NodeID(x), model.NodeID(y))
			cur = rt
			if rt < bestRT {
				bestRT = rt
				if err := best.CopyFrom(sch); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := best.Validate(); err != nil {
		return nil, fmt.Errorf("heur: annealing corrupted the schedule: %w", err)
	}
	return best, nil
}

// defaultAnnealIters is Annealing's default proposal count.
const defaultAnnealIters = 2000

// coolingTable[i] is 0.995^i, computed by math.Pow, for every proposal of
// a default-length annealing run.
var coolingTable = func() (t [defaultAnnealIters]float64) {
	for i := range t {
		t[i] = math.Pow(0.995, float64(i))
	}
	return t
}()

// cooling returns the cooling factor 0.995^i of proposal i, bit-identical
// to math.Pow(0.995, float64(i)).
func cooling(i int) float64 {
	if i < len(coolingTable) {
		return coolingTable[i]
	}
	return math.Pow(0.995, float64(i))
}

var (
	_ model.Scheduler = SlowestFirst{}
	_ model.Scheduler = LocalSearch{}
	_ model.Scheduler = Annealing{}
)
