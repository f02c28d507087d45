// Package core implements the paper's primary contribution: the greedy
// multicast scheduling algorithm for the heterogeneous receive-send model
// (Section 2, Lemma 1), the leaf-reversal post-pass (end of Section 3), and
// ablation variants used by the benchmark harness.
//
// The greedy algorithm sorts the destinations in non-decreasing order of
// overhead and repeatedly delivers the next destination at the earliest
// possible completion point, found with a priority queue keyed by each
// attached node's next delivery completion time. It runs in O(n log n) and
// always produces a layered schedule; Corollary 1 shows it minimizes the
// delivery completion time DT over all layered schedules, and Theorem 1
// bounds its reception completion time by 2*(amax/amin)*OPT_R + beta.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/pqueue"
)

// Schedule runs the paper's greedy algorithm on the set and returns the
// resulting layered schedule. Destinations are inserted in non-decreasing
// order of overhead as the paper requires.
func Schedule(set *model.MulticastSet) (*model.Schedule, error) {
	return ScheduleOrder(set, set.SortedDestinations())
}

// ScheduleWithReversal runs the greedy algorithm followed by the
// leaf-reversal post-pass the paper recommends for practical use.
func ScheduleWithReversal(set *model.MulticastSet) (*model.Schedule, error) {
	sch, err := Schedule(set)
	if err != nil {
		return nil, err
	}
	return ReverseLeaves(sch)
}

// ScheduleOrder runs the greedy insertion loop with an explicit destination
// insertion order. Passing SortedDestinations gives the paper's algorithm;
// other orders are used by the insertion-order ablation (the resulting
// schedule is generally not layered and loses the Lemma 2 guarantee).
func ScheduleOrder(set *model.MulticastSet, order []model.NodeID) (*model.Schedule, error) {
	if len(order) != set.N() {
		return nil, fmt.Errorf("core: order has %d destinations, set has %d", len(order), set.N())
	}
	seen := make([]bool, len(set.Nodes))
	for _, v := range order {
		if v <= 0 || v >= len(set.Nodes) || seen[v] {
			return nil, fmt.Errorf("core: order is not a permutation of the destinations (offending id %d)", v)
		}
		seen[v] = true
	}
	sch := model.NewSchedule(set)
	L := set.Latency
	pq := pqueue.New(set.N() + 1)
	// The source can first complete a delivery at osend(p0) + L.
	pq.Push(0, set.Nodes[0].Send+L)
	for _, pi := range order {
		it, ok := pq.Pop()
		if !ok {
			return nil, fmt.Errorf("core: internal error: empty queue with destinations remaining")
		}
		p, c := it.Value, it.Key
		if err := sch.AddChild(p, pi); err != nil {
			return nil, err
		}
		// pi completes reception at c + orecv(pi) and can then complete
		// its own first delivery after osend(pi) + L.
		pq.Push(pi, c+set.Nodes[pi].Recv+set.Nodes[pi].Send+L)
		// p can complete its next delivery osend(p) later.
		pq.Push(p, c+set.Nodes[p].Send)
	}
	return sch, nil
}

// NaiveSchedule is an O(n^2) implementation of the same greedy rule that
// scans every attached node at each step instead of using a priority queue.
// It exists as the complexity ablation for Lemma 1; it produces a schedule
// with the same completion times as Schedule.
func NaiveSchedule(set *model.MulticastSet) (*model.Schedule, error) {
	sch := model.NewSchedule(set)
	L := set.Latency
	order := set.SortedDestinations()
	n := len(set.Nodes)
	attached := make([]bool, n)
	attached[0] = true
	reception := make([]int64, n) // r(v) for attached v
	sent := make([]int64, n)      // number of transmissions already scheduled
	for _, pi := range order {
		best, bestKey := -1, int64(0)
		for v := 0; v < n; v++ {
			if !attached[v] {
				continue
			}
			key := reception[v] + (sent[v]+1)*set.Nodes[v].Send + L
			if best == -1 || key < bestKey {
				best, bestKey = v, key
			}
		}
		if err := sch.AddChild(best, pi); err != nil {
			return nil, err
		}
		sent[best]++
		attached[pi] = true
		reception[pi] = bestKey + set.Nodes[pi].Recv
	}
	return sch, nil
}

// ReverseLeaves applies the paper's leaf-reversal post-pass in place and
// returns the schedule: leaf nodes are re-matched to the existing leaf
// delivery slots so that leaves with larger receiving overheads take
// delivery earlier. Because the slot set and all internal nodes are
// untouched, the reception completion time never increases; pairing the
// largest receiving overhead with the earliest slot minimizes
// max(d_slot + orecv) over all leaf-to-slot matchings.
func ReverseLeaves(sch *model.Schedule) (*model.Schedule, error) {
	leaves := sch.Leaves()
	if len(leaves) < 2 {
		return sch, nil
	}
	tm := model.ComputeTimes(sch)
	// Slots in increasing delivery time; occupants are the current leaves.
	// Both orders break ties by ID, so each is a strict total order and
	// the permutation does not depend on the sort algorithm.
	slots := slices.Clone(leaves)
	slices.SortFunc(slots, func(a, b model.NodeID) int {
		if c := cmp.Compare(tm.Delivery[a], tm.Delivery[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Leaves in decreasing receiving overhead.
	byRecv := leaves
	set := sch.Set
	slices.SortFunc(byRecv, func(a, b model.NodeID) int {
		if c := cmp.Compare(set.Nodes[b].Recv, set.Nodes[a].Recv); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Desired occupant of slot i is byRecv[i]. Realize the permutation
	// with swaps; every involved node is a leaf so swaps are cheap and
	// keep the tree valid. slot[v] is leaf v's current slot index.
	slot := make([]int32, len(set.Nodes))
	for i, v := range slots {
		slot[v] = int32(i)
	}
	occupant := slots
	for i, want := range byRecv {
		cur := occupant[i]
		if cur == want {
			continue
		}
		j := slot[want]
		if err := sch.SwapNodes(cur, want); err != nil {
			return nil, fmt.Errorf("core: ReverseLeaves: %w", err)
		}
		occupant[i], occupant[j] = want, cur
		slot[want], slot[cur] = int32(i), j
	}
	return sch, nil
}

// Greedy is the model.Scheduler for the paper's algorithm. Reversal
// selects whether the leaf-reversal post-pass runs.
type Greedy struct {
	Reversal bool
}

// Name implements model.Scheduler.
func (g Greedy) Name() string {
	if g.Reversal {
		return "greedy+leafrev"
	}
	return "greedy"
}

// Schedule implements model.Scheduler.
func (g Greedy) Schedule(set *model.MulticastSet) (*model.Schedule, error) {
	if g.Reversal {
		return ScheduleWithReversal(set)
	}
	return Schedule(set)
}

var _ model.Scheduler = Greedy{}
