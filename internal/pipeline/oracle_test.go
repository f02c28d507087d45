package pipeline

import (
	"fmt"

	"repro/internal/model"
)

// Times is written directly from the op-sequence semantics in the package
// comment and shares no code with package model, so the parity tests use
// it as the independent oracle for model.PipelineModel.

// Result holds per-node completion information for a pipelined run.
type Result struct {
	// FirstDelivery[v] is when segment 1 arrives at v.
	FirstDelivery []int64
	// Completion[v] is when v finishes receiving its last segment.
	Completion []int64
	// RT is the overall completion time: max over destinations of
	// Completion.
	RT int64
}

// Times streams M equal segments down the schedule tree. The schedule's
// node overheads are interpreted as PER-SEGMENT costs (use SplitSet to
// derive them from a whole-message instance). The tree must be complete.
func Times(sch *model.Schedule, segments int) (*Result, error) {
	if segments < 1 {
		return nil, fmt.Errorf("pipeline: segments must be >= 1, got %d", segments)
	}
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	set := sch.Set
	n := len(set.Nodes)
	res := &Result{
		FirstDelivery: make([]int64, n),
		Completion:    make([]int64, n),
	}
	// arrive[v][m] is when segment m (0-based) is fully delivered to v;
	// computed as the parent's send completion + L. Nodes are processed
	// in BFS order: a node's entire op sequence depends only on its own
	// arrivals, which depend only on its parent's op sequence.
	arrive := make([][]int64, n)
	for v := range arrive {
		arrive[v] = make([]int64, segments)
	}
	order := bfsOrder(sch)
	L := set.Latency
	for _, v := range order {
		free := int64(0) // node v's time cursor through its op sequence
		kids := sch.Children(v)
		sv := set.Nodes[v].Send
		for m := 0; m < segments; m++ {
			if v != 0 {
				// recv(m): wait for arrival, then pay the overhead.
				start := free
				if arrive[v][m] > start {
					start = arrive[v][m]
				}
				free = start + set.Nodes[v].Recv
				if m == 0 {
					res.FirstDelivery[v] = arrive[v][m]
				}
				res.Completion[v] = free
			}
			// send(m, child) for each child in delivery order.
			for _, c := range kids {
				free += sv
				arrive[c][m] = free + L
			}
		}
	}
	for v := 1; v < n; v++ {
		if res.Completion[v] > res.RT {
			res.RT = res.Completion[v]
		}
	}
	return res, nil
}

func bfsOrder(sch *model.Schedule) []model.NodeID {
	order := []model.NodeID{0}
	for i := 0; i < len(order); i++ {
		order = append(order, sch.Children(order[i])...)
	}
	return order
}

// RT is shorthand: the completion time of streaming M segments down sch.
func RT(sch *model.Schedule, segments int) (int64, error) {
	res, err := Times(sch, segments)
	if err != nil {
		return 0, err
	}
	return res.RT, nil
}
