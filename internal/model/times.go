package model

// Times holds the timing of a schedule under the receive-send model. The
// zero value is ready for use with ComputeTimesInto / RTInto / EvalTimes,
// which reuse its buffers across calls. Heuristic neighborhood loops
// should use Engine.EvalMoves, which scores candidates against the
// structure-of-arrays layout without mutating anything.
type Times struct {
	// Delivery[v] is d(v), the time the message is delivered to v. The
	// source has Delivery[0] = 0 by convention.
	Delivery []int64
	// Reception[v] is r(v) = d(v) + orecv(v) for destinations and 0 for
	// the source (the paper sets r(p0) = 0).
	Reception []int64
	// DT is the delivery completion time max_v d(v).
	DT int64
	// RT is the reception completion time max_v r(v), the objective the
	// paper minimizes.
	RT int64

	stack []NodeID // DFS scratch
}

// ComputeTimes evaluates the model recurrences on a schedule, assuming (as
// the paper does, w.l.o.g.) that no sender idles between transmissions:
//
//	r(source) = 0
//	d(w_i)    = r(v) + i*osend(v) + L   for the i-th child w_i of v
//	r(w)      = d(w) + orecv(w)
//
// The schedule must be structurally valid (see Schedule.Validate); nodes
// not attached yet are reported with zero times.
//
// ComputeTimes is the base model only: a schedule bound to a different
// cost model (Schedule.BindModel) panics here rather than silently
// reporting base times for a plan built under another objective — use
// EvalTimes for model-dispatching evaluation.
func ComputeTimes(t *Schedule) Times {
	var tm Times
	ComputeTimesInto(t, &tm)
	return tm
}

// ComputeTimesInto is ComputeTimes writing into tm, reusing its buffers:
// after the first call at a given instance size it allocates nothing.
// Like ComputeTimes it refuses schedules bound to a non-base cost model.
func ComputeTimesInto(t *Schedule, tm *Times) {
	t.requireBase("ComputeTimes")
	computeBaseTimesInto(t, tm)
}

// computeBaseTimesInto is the unguarded base-model recurrence, shared by
// ComputeTimesInto and EvalTimes.
func computeBaseTimesInto(t *Schedule, tm *Times) {
	n := len(t.Set.Nodes)
	tm.Delivery = resizeInt64(tm.Delivery, n)
	tm.Reception = resizeInt64(tm.Reception, n)
	for i := range tm.Delivery {
		tm.Delivery[i] = 0
		tm.Reception[i] = 0
	}
	tm.DT, tm.RT = 0, 0
	L := t.Set.Latency
	// Iterative DFS from the root; children depend only on the parent's
	// reception time.
	stack := append(tm.stack[:0], 0)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rv := tm.Reception[v]
		sv := t.Set.Nodes[v].Send
		for i, w := range t.children[v] {
			d := rv + int64(i+1)*sv + L
			tm.Delivery[w] = d
			tm.Reception[w] = d + t.Set.Nodes[w].Recv
			if d > tm.DT {
				tm.DT = d
			}
			if tm.Reception[w] > tm.RT {
				tm.RT = tm.Reception[w]
			}
			stack = append(stack, w)
		}
	}
	tm.stack = stack[:0]
}

// resizeInt64 returns s with length n, reusing capacity when possible and
// rounding fresh allocations up to the next power of two, so alternating
// between nearby instance sizes (a heuristic evaluating neighborhoods of
// slightly different schedules, say) does not reallocate on every size
// change.
func resizeInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n, growCap(n))
	}
	return s[:n]
}

// growCap rounds n up to a power of two for scratch-buffer allocations.
func growCap(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// RT is shorthand for ComputeTimes(t).RT.
func RT(t *Schedule) int64 { return ComputeTimes(t).RT }

// RTInto computes the schedule's reception completion time, reusing tm's
// buffers; the allocation-free form of RT for evaluation loops.
func RTInto(t *Schedule, tm *Times) int64 {
	ComputeTimesInto(t, tm)
	return tm.RT
}

// DT is shorthand for ComputeTimes(t).DT.
func DT(t *Schedule) int64 { return ComputeTimes(t).DT }

// IsLayered reports whether the schedule is layered: for every pair of
// non-root nodes u, w with osend(u) < osend(w), d(u) <= d(w). The paper
// states the definition with a strict inequality on delivery times; we use
// the non-strict form so that ties in delivery time (which the greedy
// algorithm can produce when two senders complete simultaneously) do not
// spuriously fail the check. Every strictly-layered schedule is layered in
// this sense.
func IsLayered(t *Schedule) bool {
	tm := ComputeTimes(t)
	return IsLayeredTimes(t, tm)
}

// IsLayeredTimes is IsLayered with precomputed times.
func IsLayeredTimes(t *Schedule, tm Times) bool {
	n := len(t.Set.Nodes)
	if n <= 2 {
		return true
	}
	// Sort destinations by send overhead; delivery times must be
	// non-decreasing across strictly increasing overhead groups.
	ids := t.Set.SortedDestinations()
	maxSoFar := int64(-1)
	for i := 0; i < len(ids); {
		j := i
		groupMin := tm.Delivery[ids[i]]
		groupMax := groupMin
		for j < len(ids) && t.Set.Nodes[ids[j]].Send == t.Set.Nodes[ids[i]].Send {
			d := tm.Delivery[ids[j]]
			if d < groupMin {
				groupMin = d
			}
			if d > groupMax {
				groupMax = d
			}
			j++
		}
		if groupMin < maxSoFar {
			return false
		}
		if groupMax > maxSoFar {
			maxSoFar = groupMax
		}
		i = j
	}
	return true
}

// Interval is a half-open busy interval [Start, End) on a node's timeline.
type Interval struct {
	Start, End int64
	// Kind is "send" or "recv".
	Kind string
	// Peer is the node on the other end of the transfer: the child being
	// sent to, or the parent being received from.
	Peer NodeID
}

// Timeline returns, for each node, its busy intervals in time order:
// one recv interval (except for the source) followed by one send interval
// per child. Useful for Gantt rendering and for the discrete-event
// simulator's conformance checks.
func Timeline(t *Schedule) [][]Interval {
	tm := ComputeTimes(t)
	n := len(t.Set.Nodes)
	out := make([][]Interval, n)
	for v := 0; v < n; v++ {
		if v != 0 && t.parent[v] == -1 {
			continue
		}
		var iv []Interval
		if v != 0 {
			iv = append(iv, Interval{Start: tm.Delivery[v], End: tm.Reception[v], Kind: "recv", Peer: t.parent[v]})
		}
		rv := tm.Reception[v]
		sv := t.Set.Nodes[v].Send
		for i, w := range t.children[v] {
			iv = append(iv, Interval{Start: rv + int64(i)*sv, End: rv + int64(i+1)*sv, Kind: "send", Peer: w})
		}
		out[v] = iv
	}
	return out
}
