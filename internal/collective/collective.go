// Package collective extends the multicast machinery to the other
// collective communication operations the paper's conclusion lists as
// future work: broadcast, reduce (gather-combine toward a root), and
// barrier. Each is built on a multicast schedule tree and analyzed under
// the same receive-send model.
//
// Timing conventions:
//
//   - Broadcast is multicast to every node, so it reuses the multicast
//     schedule and objective directly.
//   - Reduce runs the tree in reverse: leaves start at time 0 and each
//     parent absorbs its children's contributions one at a time, paying the
//     child's sending overhead at the child and its own receiving overhead
//     per message; the root's finish time is the completion. Receives are
//     processed in the reverse of the multicast delivery order (the last
//     destination delivered becomes the first reduced), which lets a
//     pipelined tree drain symmetrically.
//   - Barrier is a reduce followed by a broadcast on the same tree.
//
// model.ReduceModel and model.BarrierModel evaluate reduce and barrier on
// the engine's flat layout.
package collective

import (
	"fmt"

	"repro/internal/model"
)

// Plan couples a scheduler with the collective analyses, so callers can
// ask "what does this algorithm's tree cost for broadcast/reduce/barrier"
// in one shot.
type Plan struct {
	Schedule  *model.Schedule
	Broadcast int64
	Reduce    int64
	Barrier   int64
}

// PlanFor builds the scheduler's tree for the set and analyzes all three
// collectives on it. Reduce is scored on a model-bound clone, so
// Plan.Schedule stays unbound.
func PlanFor(s model.Scheduler, set *model.MulticastSet) (*Plan, error) {
	sch, err := s.Schedule(set)
	if err != nil {
		return nil, fmt.Errorf("collective: %s: %w", s.Name(), err)
	}
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	red := sch.Clone()
	red.BindModel(model.ReduceModel{})
	var tm model.Times
	if err := model.EvalTimes(red, &tm); err != nil {
		return nil, err
	}
	bc := model.RT(sch)
	return &Plan{Schedule: sch, Broadcast: bc, Reduce: tm.RT, Barrier: tm.RT + bc}, nil
}
