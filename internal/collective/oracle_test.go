package collective

import "repro/internal/model"

// Reduce and BarrierRT walk the schedule tree directly and share no code
// with the engine's reverse ready fold, so the parity tests use them as
// the independent oracles for model.ReduceModel and model.BarrierModel.

// ReduceTimes holds the reverse-tree analysis.
type ReduceTimes struct {
	// Ready[v] is when v has combined all its children's contributions
	// and is ready to send upward (leaves: 0).
	Ready []int64
	// Done is the time the root has absorbed every contribution: the
	// reduce completion time.
	Done int64
}

// Reduce analyzes the schedule tree as a reduction toward the source. For
// each node v with children c_1..c_k (processed in reverse delivery
// order), v receives contribution i at
//
//	recv_i = max(recv_{i-1}, ready(c_i) + osend(c_i) + L) + orecv(v)
//
// where recv_0 = ready(v)'s own-subtree base of 0 for leaves; v is busy
// orecv(v) per absorbed message and children must have finished their own
// subtrees before sending up.
func Reduce(sch *model.Schedule) (ReduceTimes, error) {
	if err := sch.Validate(); err != nil {
		return ReduceTimes{}, err
	}
	n := len(sch.Set.Nodes)
	rt := ReduceTimes{Ready: make([]int64, n)}
	// Iterative bottom-up pass: BFS order puts parents before children, so
	// scanning it in reverse sees every child's ready time before its
	// parent. No recursion, so a chain schedule of depth n cannot overflow
	// the stack.
	order := make([]model.NodeID, 0, n)
	order = append(order, 0)
	for i := 0; i < len(order); i++ {
		order = append(order, sch.Children(order[i])...)
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		rt.Ready[v] = absorbChildren(sch, v, rt.Ready)
	}
	rt.Done = rt.Ready[0]
	return rt, nil
}

// absorbChildren folds v's children's contributions in reverse delivery
// order:
//
//	recv_i = max(recv_{i-1}, ready(c_i) + osend(c_i) + L) + orecv(v)
//
// returning v's ready (busy-until) time.
func absorbChildren(sch *model.Schedule, v model.NodeID, ready []int64) int64 {
	set := sch.Set
	kids := sch.Children(v)
	busyUntil := int64(0)
	for i := len(kids) - 1; i >= 0; i-- {
		c := kids[i]
		arrive := ready[c] + set.Nodes[c].Send + set.Latency
		if arrive < busyUntil {
			arrive = busyUntil
		}
		busyUntil = arrive + set.Nodes[v].Recv
	}
	return busyUntil
}

// BarrierRT is the completion time of a barrier implemented as a reduce
// followed by a broadcast on the same schedule tree.
func BarrierRT(sch *model.Schedule) (int64, error) {
	red, err := Reduce(sch)
	if err != nil {
		return 0, err
	}
	return red.Done + model.RT(sch), nil
}
