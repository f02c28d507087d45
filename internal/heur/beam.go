package heur

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/model"
)

// BeamSearch generalizes the paper's greedy construction: destinations are
// inserted in the same sorted order, but instead of committing to the
// single earliest-completing sender, the search keeps the Width most
// promising partial schedules and branches over the Branch earliest
// sender choices at each step. Width = Branch = 1 reproduces greedy
// exactly; larger widths explore the structurally different trees that
// experiment E11 shows are needed to close greedy's residual gap. The
// leaf-reversal post-pass is applied to every complete candidate.
type BeamSearch struct {
	// Width is the beam size (default 8).
	Width int
	// Branch is the number of sender alternatives expanded per state
	// (default 3).
	Branch int
	// Model is the cost model to optimize (nil or BaseModel: the base
	// receive-send objective). Under the link model the construction keys
	// carry the per-pair latencies; under the other models the base keys
	// guide construction and the model scores the finished candidates. The
	// model-aware greedy always joins the final pool, so the result is
	// never worse than the scenario greedy under the model.
	Model model.CostModel
}

// Name implements model.Scheduler.
func (BeamSearch) Name() string { return "beam-search" }

// beamSlab holds the beam's partial schedules as rows of flat arrays:
// state i owns entries [i*n, (i+1)*n) of parent, sends and reception.
type beamSlab struct {
	parent    []model.NodeID // parent assignment (-1 = unattached)
	sends     []int64        // transmissions scheduled per node
	reception []int64        // r(v) for attached nodes
	maxRecep  []int64        // partial completion time per state
	sumRecep  []int64        // sum of reception times per state
}

// resize makes room for rows states of n nodes, keeping the backing
// arrays when they are large enough.
func (s *beamSlab) resize(rows, n int) {
	s.parent = resizeSlab(s.parent, rows*n)
	s.sends = resizeSlab(s.sends, rows*n)
	s.reception = resizeSlab(s.reception, rows*n)
	s.maxRecep = resizeSlab(s.maxRecep, rows)
	s.sumRecep = resizeSlab(s.sumRecep, rows)
}

func resizeSlab[T any](xs []T, size int) []T {
	if cap(xs) < size {
		return make([]T, size)
	}
	return xs[:size]
}

// beamOption is one sender choice for the node being inserted.
type beamOption struct {
	key  int64 // delivery completion of the new assignment
	from model.NodeID
}

// beamChild describes one expansion of a beam state; only the children
// that survive the width cut are written out as slab rows.
type beamChild struct {
	state    int
	from     model.NodeID
	key      int64
	maxRecep int64
	sumRecep int64
}

// compareBeamChildren orders children for the width cut: primary key the
// partial completion, secondary the sum of reception times (less total
// lateness keeps more slack for the remaining insertions).
func compareBeamChildren(a, b beamChild) int {
	if c := cmp.Compare(a.maxRecep, b.maxRecep); c != 0 {
		return c
	}
	return cmp.Compare(a.sumRecep, b.sumRecep)
}

// Schedule implements model.Scheduler.
func (b BeamSearch) Schedule(set *model.MulticastSet) (*model.Schedule, error) {
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
	var cur, nxt beamSlab
	cur.resize(1, n)
	for i := range cur.parent {
		cur.parent[i] = -1
	}
	cur.parent[0] = 0 // mark attached; the root's stored parent is unused
	states := 1
	opts := make([]beamOption, 0, min(branch, n))
	var kids []beamChild
	for _, pi := range order {
		recv := set.Nodes[pi].Recv
		kids = kids[:0]
		for s := 0; s < states; s++ {
			parent := cur.parent[s*n : (s+1)*n]
			sends := cur.sends[s*n : (s+1)*n]
			reception := cur.reception[s*n : (s+1)*n]
			// Keep the `branch` attached senders with the earliest next
			// delivery completion, ordered by (key, from). Senders are
			// visited in ascending ID, so an equal key never displaces a
			// kept option.
			opts = opts[:0]
			for v := 0; v < n; v++ {
				if parent[v] == -1 {
					continue
				}
				lt := L
				if lat != nil {
					lt = lat[v][pi]
				}
				key := reception[v] + (sends[v]+1)*set.Nodes[v].Send + lt
				if len(opts) == branch {
					if key >= opts[branch-1].key {
						continue
					}
				} else {
					opts = append(opts, beamOption{})
				}
				i := len(opts) - 1
				for ; i > 0 && opts[i-1].key > key; i-- {
					opts[i] = opts[i-1]
				}
				opts[i] = beamOption{key: key, from: model.NodeID(v)}
			}
			for _, op := range opts {
				r := op.key + recv
				kids = append(kids, beamChild{
					state: s, from: op.from, key: op.key,
					maxRecep: max(cur.maxRecep[s], r),
					sumRecep: cur.sumRecep[s] + r,
				})
			}
		}
		// Keep the Width most promising children. The sort is unstable and
		// real ties occur, so the children are sorted in generation order:
		// that order and the pdqsort permutation decide the ties, and the
		// parity suite pins both.
		slices.SortFunc(kids, compareBeamChildren)
		if len(kids) > width {
			kids = kids[:width]
		}
		nxt.resize(len(kids), n)
		for i, c := range kids {
			src, dst := c.state*n, i*n
			copy(nxt.parent[dst:dst+n], cur.parent[src:src+n])
			copy(nxt.sends[dst:dst+n], cur.sends[src:src+n])
			copy(nxt.reception[dst:dst+n], cur.reception[src:src+n])
			nxt.sends[dst+c.from]++
			nxt.parent[dst+pi] = c.from
			nxt.reception[dst+pi] = c.key + recv
			nxt.maxRecep[i] = c.maxRecep
			nxt.sumRecep[i] = c.sumRecep
		}
		cur, nxt = nxt, cur
		states = len(kids)
	}
	// Materialize every beam candidate, leaf-reverse it, keep the best.
	// Candidates share one reusable engine whose flat layout is rebuilt
	// per schedule, so the final scoring pass allocates nothing beyond
	// the materialized trees themselves.
	var best *model.Schedule
	var bestRT int64
	var eng model.Engine
	score := func(sch *model.Schedule) {
		eng.Attach(sch)
		if rt := eng.RT(); best == nil || rt < bestRT {
			best, bestRT = sch, rt
		}
	}
	for s := 0; s < states; s++ {
		sch, err := materialize(set, order, cur.parent[s*n:(s+1)*n])
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
		// Model mode: the reversal permutation is base-guided, so build it
		// on an untagged clone and let the model pick between the plain and
		// the reversed tree.
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
		// Guarantee the result is never worse than the scenario greedy
		// under the model, even when the base-guided beam keys mislead.
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

// materialize builds the tree of one finished beam state. Replaying the
// insertions in order appends each parent's children in rank order.
func materialize(set *model.MulticastSet, order, parent []model.NodeID) (*model.Schedule, error) {
	sch := model.NewSchedule(set)
	for _, v := range order {
		if err := sch.AddChild(parent[v], v); err != nil {
			return nil, err
		}
	}
	return sch, nil
}

var _ model.Scheduler = BeamSearch{}
