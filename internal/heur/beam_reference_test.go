package heur

// This file retains the clone-per-child BeamSearch construction verbatim
// as a test-only reference. The parity suite pins the flat-slab beam to
// it: same kept sender options, same width cut (ties included), same
// final tree.

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
)

// beamRefState is a partial schedule under construction.
type beamRefState struct {
	parent    []model.NodeID // parent assignment (-1 = unattached)
	rank      []int64        // child rank at the parent
	sends     []int64        // transmissions scheduled per node
	reception []int64        // r(v) for attached nodes
	maxRecep  int64          // partial completion time
}

func (s *beamRefState) clone() *beamRefState {
	return &beamRefState{
		parent:    append([]model.NodeID(nil), s.parent...),
		rank:      append([]int64(nil), s.rank...),
		sends:     append([]int64(nil), s.sends...),
		reception: append([]int64(nil), s.reception...),
		maxRecep:  s.maxRecep,
	}
}

// beamReference is the clone-per-child BeamSearch.Schedule.
func beamReference(b BeamSearch, set *model.MulticastSet) (*model.Schedule, error) {
	width := b.Width
	if width <= 0 {
		width = 8
	}
	branch := b.Branch
	if branch <= 0 {
		branch = 3
	}
	cm := b.Model
	if !model.IsBase(cm) {
		if err := cm.Validate(set); err != nil {
			return nil, err
		}
	}
	var lat [][]int64 // link model: per-pair latencies in the beam keys
	if lm, ok := cm.(*model.LinkModel); ok {
		lat = lm.Lat
	}
	n := len(set.Nodes)
	order := set.SortedDestinations()
	L := set.Latency
	init := &beamRefState{
		parent:    make([]model.NodeID, n),
		rank:      make([]int64, n),
		sends:     make([]int64, n),
		reception: make([]int64, n),
	}
	for i := range init.parent {
		init.parent[i] = -1
	}
	init.parent[0] = 0 // mark attached; the root's stored parent is unused
	beam := []*beamRefState{init}
	for _, pi := range order {
		type cand struct {
			state *beamRefState
			key   int64 // delivery completion of the new assignment
			from  model.NodeID
		}
		var next []*beamRefState
		for _, st := range beam {
			// Collect sender options: attached nodes by next delivery
			// completion, keeping the `branch` earliest distinct keys.
			var options []cand
			for v := 0; v < n; v++ {
				if st.parent[v] == -1 && v != 0 {
					continue
				}
				lt := L
				if lat != nil {
					lt = lat[v][pi]
				}
				key := st.reception[v] + (st.sends[v]+1)*set.Nodes[v].Send + lt
				options = append(options, cand{state: st, key: key, from: model.NodeID(v)})
			}
			sort.Slice(options, func(i, j int) bool {
				if options[i].key != options[j].key {
					return options[i].key < options[j].key
				}
				return options[i].from < options[j].from
			})
			if len(options) > branch {
				options = options[:branch]
			}
			for _, op := range options {
				ns := op.state.clone()
				ns.sends[op.from]++
				ns.parent[pi] = op.from
				ns.rank[pi] = ns.sends[op.from]
				ns.reception[pi] = op.key + set.Nodes[pi].Recv
				if ns.reception[pi] > ns.maxRecep {
					ns.maxRecep = ns.reception[pi]
				}
				next = append(next, ns)
			}
		}
		// Keep the Width most promising states: primary key partial
		// completion, secondary the sum of reception times (less total
		// lateness keeps more slack for the remaining insertions).
		sort.Slice(next, func(i, j int) bool {
			if next[i].maxRecep != next[j].maxRecep {
				return next[i].maxRecep < next[j].maxRecep
			}
			return sumInt64Ref(next[i].reception) < sumInt64Ref(next[j].reception)
		})
		if len(next) > width {
			next = next[:width]
		}
		beam = next
	}
	// Materialize every beam candidate, leaf-reverse it, keep the best.
	var best *model.Schedule
	var bestRT int64
	var eng model.Engine
	score := func(sch *model.Schedule) {
		eng.Attach(sch)
		if rt := eng.RT(); best == nil || rt < bestRT {
			best, bestRT = sch, rt
		}
	}
	for _, st := range beam {
		sch, err := materializeRef(set, st)
		if err != nil {
			return nil, err
		}
		if model.IsBase(cm) {
			if _, err := core.ReverseLeaves(sch); err != nil {
				return nil, err
			}
			score(sch)
			continue
		}
		rev := sch.Clone()
		if _, err := core.ReverseLeaves(rev); err != nil {
			return nil, err
		}
		sch.BindModel(cm)
		rev.BindModel(cm)
		score(sch)
		score(rev)
	}
	if !model.IsBase(cm) {
		g, err := ModelGreedy{Model: cm, Reversal: true}.Schedule(set)
		if err != nil {
			return nil, err
		}
		score(g)
	}
	if best == nil {
		return nil, fmt.Errorf("heur: beam search produced no schedule")
	}
	return best, nil
}

func materializeRef(set *model.MulticastSet, st *beamRefState) (*model.Schedule, error) {
	n := len(set.Nodes)
	kids := make([][]model.NodeID, n)
	for v := 1; v < n; v++ {
		p := st.parent[v]
		if p == -1 {
			return nil, fmt.Errorf("heur: beam state incomplete at node %d", v)
		}
		kids[p] = append(kids[p], model.NodeID(v))
	}
	for p := range kids {
		list := kids[p]
		sort.Slice(list, func(i, j int) bool { return st.rank[list[i]] < st.rank[list[j]] })
	}
	sch := model.NewSchedule(set)
	queue := []model.NodeID{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range kids[v] {
			if err := sch.AddChild(v, c); err != nil {
				return nil, err
			}
			queue = append(queue, c)
		}
	}
	return sch, nil
}

func sumInt64Ref(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
