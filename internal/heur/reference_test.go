package heur

// This file retains the pre-engine move-at-a-time heuristic inner loops
// (mutate, evaluate the whole tree under the cost model, undo) as
// test-only references. The parity suite pins the engine-backed
// LocalSearch and Annealing to these bit for bit under every cost model:
// same moves considered in the same order, same acceptance decisions,
// same final tree.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/model"
)

// referenceStart mirrors the searches' shared setup: the default base
// scheduler for the model, the model binding (or adoption of the base
// scheduler's own binding), and the same-type swap pruning rule.
func referenceStart(base model.Scheduler, cm model.CostModel, set *model.MulticastSet) (*model.Schedule, bool, error) {
	if base == nil {
		if model.IsBase(cm) {
			base = core.Greedy{Reversal: true}
		} else {
			base = ModelGreedy{Model: cm, Reversal: true}
		}
	}
	sch, err := base.Schedule(set)
	if err != nil {
		return nil, false, err
	}
	if model.IsBase(cm) {
		cm = sch.Model()
	} else {
		sch.BindModel(cm)
	}
	return sch, model.IsBase(cm) || cm.TypeSymmetric(), nil
}

// referenceRT evaluates sch from scratch under its bound model.
func referenceRT(sch *model.Schedule, tm *model.Times) (int64, error) {
	if err := model.EvalTimes(sch, tm); err != nil {
		return 0, err
	}
	return tm.RT, nil
}

// localSearchReference is the pre-engine LocalSearch.Schedule inner loop.
func localSearchReference(l LocalSearch, set *model.MulticastSet) (*model.Schedule, error) {
	rounds := l.MaxRounds
	if rounds <= 0 {
		rounds = 50
	}
	sch, skipSame, err := referenceStart(l.Base, l.Model, set)
	if err != nil {
		return nil, err
	}
	var tm model.Times
	cur, err := referenceRT(sch, &tm)
	if err != nil {
		return nil, err
	}
	n := len(set.Nodes)
	for round := 0; round < rounds; round++ {
		improved := false
		for a := 1; a < n && !improved; a++ {
			for b := a + 1; b < n && !improved; b++ {
				if skipSame && set.Nodes[a] == set.Nodes[b] {
					continue
				}
				if err := sch.SwapNodes(a, b); err != nil {
					return nil, err
				}
				rt, err := referenceRT(sch, &tm)
				if err != nil {
					return nil, err
				}
				if rt < cur {
					cur = rt
					improved = true
				} else if err := sch.SwapNodes(a, b); err != nil {
					return nil, err
				}
			}
		}
		for v := 1; v < n && !improved; v++ {
			leaf := model.NodeID(v)
			if !sch.IsLeaf(leaf) {
				continue
			}
			for p := 0; p < n && !improved; p++ {
				target := model.NodeID(p)
				if p == v || target == sch.Parent(leaf) {
					continue
				}
				if p != 0 && sch.Parent(target) == -1 {
					continue
				}
				oldParent, oldIdx, err := sch.RemoveLeaf(leaf)
				if err != nil {
					return nil, err
				}
				if err := sch.InsertChild(target, leaf, len(sch.Children(target))); err != nil {
					if e2 := sch.InsertChild(oldParent, leaf, oldIdx); e2 != nil {
						return nil, fmt.Errorf("heur: relocate rollback failed: %v after %v", e2, err)
					}
					continue
				}
				rt, err := referenceRT(sch, &tm)
				if err != nil {
					return nil, err
				}
				if rt < cur {
					cur = rt
					improved = true
				} else {
					if _, _, err := sch.RemoveLeaf(leaf); err != nil {
						return nil, err
					}
					if err := sch.InsertChild(oldParent, leaf, oldIdx); err != nil {
						return nil, err
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	if err := sch.Validate(); err != nil {
		return nil, fmt.Errorf("heur: local search corrupted the schedule: %w", err)
	}
	return sch, nil
}

// annealingReference is the pre-engine Annealing.Schedule inner loop.
func annealingReference(a Annealing, set *model.MulticastSet) (*model.Schedule, error) {
	iters := a.Iters
	if iters <= 0 {
		iters = 2000
	}
	seed := a.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	sch, skipSame, err := referenceStart(a.Base, a.Model, set)
	if err != nil {
		return nil, err
	}
	n := len(set.Nodes)
	if n <= 2 {
		return sch, nil
	}
	var tm model.Times
	rt0, err := referenceRT(sch, &tm)
	if err != nil {
		return nil, err
	}
	cur := float64(rt0)
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
		temp := t0 * math.Pow(0.995, float64(i))
		if temp < 1e-3 {
			temp = 1e-3
		}
		x := 1 + rng.Intn(n-1)
		y := 1 + rng.Intn(n-1)
		if x == y || (skipSame && set.Nodes[x] == set.Nodes[y]) {
			continue
		}
		if err := sch.SwapNodes(model.NodeID(x), model.NodeID(y)); err != nil {
			return nil, err
		}
		rtInt, err := referenceRT(sch, &tm)
		if err != nil {
			return nil, err
		}
		rt := float64(rtInt)
		accept := rt <= cur || rng.Float64() < math.Exp((cur-rt)/temp)
		if accept {
			cur = rt
			if rt < bestRT {
				bestRT = rt
				if err := best.CopyFrom(sch); err != nil {
					return nil, err
				}
			}
		} else if err := sch.SwapNodes(model.NodeID(x), model.NodeID(y)); err != nil {
			return nil, err
		}
	}
	if err := best.Validate(); err != nil {
		return nil, fmt.Errorf("heur: annealing corrupted the schedule: %w", err)
	}
	return best, nil
}
