// Package pipeline extends the receive-send model to pipelined multicast
// of a message split into M segments.
//
// The paper folds message length into the per-node overheads (its
// footnote on the model); for long messages a natural refinement --
// standard in the collective-communication literature -- is to split the
// message into M segments and stream them down a fixed tree. Each node
// processes operations strictly in order
//
//	recv(1), send(1, c1..ck), recv(2), send(2, c1..ck), ...
//
// paying its per-segment receiving overhead for each recv and its
// per-segment sending overhead for each send; a segment arrives at a
// child L time units after its send completes, and a recv cannot start
// before its segment has arrived. With M = 1 the timing coincides exactly
// with model.ComputeTimes. model.PipelineModel evaluates these semantics
// on the engine's flat layout; this package derives the per-segment
// instances it scores (SplitSet).
//
// Pipelining rewards deep trees: a chain streams all segments at full
// overlap while a wide tree multiplies the per-segment fan-out cost. The
// harness's E13 experiment exhibits the classic crossover between the
// paper's greedy tree (best at M = 1) and chains (best at large M).
package pipeline

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// SplitSet derives the per-segment instance for splitting a message of
// totalBytes into M segments on the given network spec nodes: each node's
// overheads are recomputed for ceil(totalBytes/M) bytes using a linear
// interpolation between its zero-length and full-length overheads.
//
// Callers with explicit fixed/per-KB profiles (package cluster) should
// instead instantiate the spec at the segment size directly; SplitSet is
// the fallback for raw instances and assumes overheads of the form
// fixed + slope*bytes with fixed = 0 (pure bandwidth term), i.e. it
// divides overheads by M, clamping at 1 time unit.
func SplitSet(set *model.MulticastSet, segments int) (*model.MulticastSet, error) {
	if segments < 1 {
		return nil, fmt.Errorf("pipeline: segments must be >= 1, got %d", segments)
	}
	out := set.Clone()
	m := int64(segments)
	// Divide per distinct type, then repair the speed-correlation
	// invariant: integer division can make two distinct types collide on
	// send but not recv, which model.Validate rejects.
	type key struct{ s, r int64 }
	types := map[key]model.Node{}
	var orderKeys []key
	for _, n := range set.Nodes {
		k := key{n.Send, n.Recv}
		if _, ok := types[k]; !ok {
			types[k] = model.Node{}
			orderKeys = append(orderKeys, k)
		}
	}
	sort.Slice(orderKeys, func(i, j int) bool {
		a, b := orderKeys[i], orderKeys[j]
		if a.s != b.s {
			return a.s < b.s
		}
		return a.r < b.r
	})
	prev := model.Node{}
	for _, k := range orderKeys {
		s := (k.s + m - 1) / m
		r := (k.r + m - 1) / m
		if s < 1 {
			s = 1
		}
		if r < 1 {
			r = 1
		}
		if s < prev.Send {
			s = prev.Send
		}
		if s == prev.Send && prev.Send != 0 {
			r = prev.Recv // merged send classes must share a recv
		} else if r < prev.Recv {
			r = prev.Recv
		}
		prev = model.Node{Send: s, Recv: r}
		types[k] = prev
	}
	for i, n := range out.Nodes {
		div := types[key{n.Send, n.Recv}]
		out.Nodes[i].Send = div.Send
		out.Nodes[i].Recv = div.Recv
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: split instance invalid: %w", err)
	}
	return out, nil
}
