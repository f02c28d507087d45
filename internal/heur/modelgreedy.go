package heur

import (
	"repro/internal/core"
	"repro/internal/model"
)

// ModelGreedy runs the paper's greedy construction under an arbitrary
// cost model and returns a model-bound schedule. Under the base model it
// defers to core.Greedy; under the link model it is the WAN-aware greedy
// (earliest completion over attached senders with the per-pair latency
// in the key); under the remaining models it builds the base greedy tree
// and scores it with the model. It is the "scenario greedy" baseline the
// model-aware searches start from and are measured against.
type ModelGreedy struct {
	// Model is the cost model (nil or BaseModel: the base greedy).
	Model model.CostModel
	// Reversal additionally tries the leaf-reversal post-pass, keeping the
	// reversed tree only when the model scores it strictly better.
	Reversal bool
}

// Name implements model.Scheduler; it mirrors core.Greedy so per-model
// registry entries and comparison tables keep the familiar column names.
func (g ModelGreedy) Name() string {
	if g.Reversal {
		return "greedy+leafrev"
	}
	return "greedy"
}

// Schedule implements model.Scheduler.
func (g ModelGreedy) Schedule(set *model.MulticastSet) (*model.Schedule, error) {
	cm := g.Model
	if model.IsBase(cm) {
		return core.Greedy{Reversal: g.Reversal}.Schedule(set)
	}
	if err := cm.Validate(set); err != nil {
		return nil, err
	}
	var sch *model.Schedule
	var err error
	if lm, ok := cm.(*model.LinkModel); ok {
		sch, err = linkGreedy(set, lm.Lat)
	} else {
		sch, err = core.Schedule(set)
	}
	if err != nil {
		return nil, err
	}
	if g.Reversal {
		// The reversal permutation itself is base-guided (ReverseLeaves
		// consults base times, so it must run before the model binding);
		// whether to keep it is the model's call.
		rev := sch.Clone()
		if _, err := core.ReverseLeaves(rev); err != nil {
			return nil, err
		}
		sch.BindModel(cm)
		rev.BindModel(cm)
		var plain, reversed model.Times
		if err := model.EvalTimes(sch, &plain); err != nil {
			return nil, err
		}
		if err := model.EvalTimes(rev, &reversed); err != nil {
			return nil, err
		}
		if reversed.RT < plain.RT {
			return rev, nil
		}
		return sch, nil
	}
	sch.BindModel(cm)
	return sch, nil
}

// linkGreedy is the WAN-aware greedy on a base set plus latency matrix:
// destinations in non-decreasing overhead order, each attached under the
// sender with the earliest pair-latency-aware completion: an O(n^2) scan
// in ascending node order with strict-less tie-breaking, since the key
// depends on the (sender, destination) pair.
func linkGreedy(set *model.MulticastSet, lat [][]int64) (*model.Schedule, error) {
	n := len(set.Nodes)
	sch := model.NewSchedule(set)
	attached := make([]bool, n)
	attached[0] = true
	reception := make([]int64, n)
	sends := make([]int64, n)
	for _, pi := range set.SortedDestinations() {
		best, bestKey := -1, int64(0)
		for v := 0; v < n; v++ {
			if !attached[v] {
				continue
			}
			key := reception[v] + (sends[v]+1)*set.Nodes[v].Send + lat[v][pi]
			if best == -1 || key < bestKey {
				best, bestKey = v, key
			}
		}
		if err := sch.AddChild(model.NodeID(best), pi); err != nil {
			return nil, err
		}
		sends[best]++
		attached[pi] = true
		reception[pi] = bestKey + set.Nodes[pi].Recv
	}
	return sch, nil
}

var _ model.Scheduler = ModelGreedy{}
