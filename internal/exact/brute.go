package exact

import (
	"fmt"

	"repro/internal/model"
)

// MaxBruteForceN caps the brute-force enumerator; beyond ~8 destinations
// the schedule space is too large to enumerate.
const MaxBruteForceN = 8

// BruteForceRT enumerates multicast schedules with branch-and-bound and
// returns the minimum reception completion time. It is an independent
// ground-truth oracle used to validate the DP on small instances
// (n <= MaxBruteForceN).
func BruteForceRT(set *model.MulticastSet) (int64, error) {
	_, rt, err := bruteForce(set, false)
	return rt, err
}

func bruteForce(set *model.MulticastSet, wantSchedule bool) (*model.Schedule, int64, error) {
	if err := set.Validate(); err != nil {
		return nil, 0, err
	}
	n := set.N()
	if n > MaxBruteForceN {
		return nil, 0, fmt.Errorf("exact: brute force limited to %d destinations, got %d", MaxBruteForceN, n)
	}
	if n == 0 {
		return model.NewSchedule(set), 0, nil
	}
	total := len(set.Nodes)
	// Search state: which nodes are attached, each attached node's
	// reception time and number of sends so far, and the parent/rank
	// assignment made so far.
	attached := make([]bool, total)
	attached[0] = true
	reception := make([]int64, total)
	sends := make([]int64, total)
	parent := make([]model.NodeID, total)
	for i := range parent {
		parent[i] = -1
	}
	rank := make([]int64, total)
	best := inf
	bestParent := make([]model.NodeID, total)
	bestRank := make([]int64, total)
	L := set.Latency

	// Symmetry pruning: unattached nodes of identical type are
	// interchangeable, so at each step only the lowest-ID unattached node
	// of each distinct type is tried as receiver.
	sameType := func(a, b model.NodeID) bool {
		return set.Nodes[a].Send == set.Nodes[b].Send && set.Nodes[a].Recv == set.Nodes[b].Recv
	}

	var rec func(remaining int, curMax int64)
	rec = func(remaining int, curMax int64) {
		if curMax >= best {
			return // bound: times only grow as nodes are added
		}
		if remaining == 0 {
			best = curMax
			copy(bestParent, parent)
			copy(bestRank, rank)
			return
		}
		for r := 1; r < total; r++ {
			if attached[r] {
				continue
			}
			// Skip receivers symmetric to an earlier unattached node.
			dup := false
			for r2 := 1; r2 < r; r2++ {
				if !attached[r2] && sameType(r, r2) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			for s := 0; s < total; s++ {
				if !attached[s] {
					continue
				}
				d := reception[s] + (sends[s]+1)*set.Nodes[s].Send + L
				rr := d + set.Nodes[r].Recv
				newMax := curMax
				if rr > newMax {
					newMax = rr
				}
				if newMax >= best {
					continue
				}
				attached[r] = true
				reception[r] = rr
				sends[s]++
				parent[r] = s
				rank[r] = sends[s]
				rec(remaining-1, newMax)
				attached[r] = false
				sends[s]--
				parent[r] = -1
			}
		}
	}
	rec(n, 0)
	if best >= inf {
		return nil, 0, fmt.Errorf("exact: brute force found no schedule (internal error)")
	}
	if !wantSchedule {
		return nil, best, nil
	}
	sch, err := scheduleFromParents(set, bestParent, bestRank)
	if err != nil {
		return nil, 0, err
	}
	// Re-score the reconstruction through the flat engine: the search's
	// own incremental reception bookkeeping and the rebuilt tree must
	// agree on the optimum, or the parent/rank reconstruction is buggy.
	var eng model.Engine
	eng.Attach(sch)
	if eng.RT() != best {
		return nil, 0, fmt.Errorf("exact: brute-force reconstruction scores %d, search found %d", eng.RT(), best)
	}
	return sch, best, nil
}

// scheduleFromParents rebuilds an ordered schedule from parent and
// child-rank assignments.
func scheduleFromParents(set *model.MulticastSet, parent []model.NodeID, rank []int64) (*model.Schedule, error) {
	total := len(set.Nodes)
	// Order children of each parent by rank, then attach in BFS order from
	// the root so AddChild's attachment precondition holds.
	kids := make(map[model.NodeID][]model.NodeID)
	for v := 1; v < total; v++ {
		kids[parent[v]] = append(kids[parent[v]], v)
	}
	for p := range kids {
		list := kids[p]
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && rank[list[j]] < rank[list[j-1]]; j-- {
				list[j], list[j-1] = list[j-1], list[j]
			}
		}
	}
	sch := model.NewSchedule(set)
	queue := []model.NodeID{0}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, c := range kids[p] {
			if err := sch.AddChild(p, c); err != nil {
				return nil, err
			}
			queue = append(queue, c)
		}
	}
	return sch, nil
}

// EnumerateSchedules invokes visit on every complete schedule for the set
// (duplicates possible due to interleaving of construction orders). If
// visit returns false the enumeration stops. Only feasible for tiny n;
// intended for exhaustive property checks such as the Lemma 2 layered-
// schedule optimality test.
func EnumerateSchedules(set *model.MulticastSet, visit func(*model.Schedule) bool) error {
	if err := set.Validate(); err != nil {
		return err
	}
	n := set.N()
	if n > 6 {
		return fmt.Errorf("exact: EnumerateSchedules limited to 6 destinations, got %d", n)
	}
	sch := model.NewSchedule(set)
	attached := make([]bool, len(set.Nodes))
	attached[0] = true
	seen := map[string]bool{}
	stopped := false
	var rec func(remaining int)
	rec = func(remaining int) {
		if stopped {
			return
		}
		if remaining == 0 {
			key := sch.String()
			if !seen[key] {
				seen[key] = true
				if !visit(sch) {
					stopped = true
				}
			}
			return
		}
		for r := 1; r < len(attached); r++ {
			if attached[r] {
				continue
			}
			for s := 0; s < len(attached); s++ {
				if !attached[s] {
					continue
				}
				attached[r] = true
				sch.MustAddChild(s, r)
				rec(remaining - 1)
				attached[r] = false
				removeLastChild(sch, s, r)
				if stopped {
					return
				}
			}
		}
	}
	rec(n)
	return nil
}

// removeLastChild detaches child r that was just appended to s. Only used
// by the enumerator, which appends and removes in stack discipline.
func removeLastChild(sch *model.Schedule, s, r model.NodeID) {
	// The enumerator only ever removes the most recently added child.
	got, err := sch.DetachLastChild(s)
	if err != nil || got != r {
		panic(fmt.Sprintf("exact: removeLastChild misuse: got %d err %v, want %d", got, err, r))
	}
}
