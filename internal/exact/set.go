package exact

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// Instance is a multicast set analyzed into the type inventory the DP
// consumes: the distinct (send, recv) types, the source's type, the
// per-type destination counts and the destination IDs per type.
type Instance struct {
	Set         *model.MulticastSet
	Types       []Type
	SourceType  int
	Counts      []int
	DestsByType [][]model.NodeID
}

// Analyze derives the type inventory of a multicast set. Types are sorted
// by (send, recv). The number of distinct types k drives the DP cost
// O(n^(2k)); callers can check len(Types) before running the DP.
func Analyze(set *model.MulticastSet) (*Instance, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	seen := map[Type]int{}
	var types []Type
	for _, n := range set.Nodes {
		ty := Type{Send: n.Send, Recv: n.Recv}
		if _, ok := seen[ty]; !ok {
			seen[ty] = 1
			types = append(types, ty)
		}
	}
	// Sort by (Send, Recv) to match the DP's internal order.
	for i := 1; i < len(types); i++ {
		for j := i; j > 0; j-- {
			a, b := types[j-1], types[j]
			if a.Send < b.Send || (a.Send == b.Send && a.Recv <= b.Recv) {
				break
			}
			types[j-1], types[j] = b, a
		}
	}
	index := make(map[Type]int, len(types))
	for i, t := range types {
		index[t] = i
	}
	inst := &Instance{
		Set:         set,
		Types:       types,
		SourceType:  index[Type{Send: set.Nodes[0].Send, Recv: set.Nodes[0].Recv}],
		Counts:      make([]int, len(types)),
		DestsByType: make([][]model.NodeID, len(types)),
	}
	for id := 1; id < len(set.Nodes); id++ {
		ty := index[Type{Send: set.Nodes[id].Send, Recv: set.Nodes[id].Recv}]
		inst.Counts[ty]++
		inst.DestsByType[ty] = append(inst.DestsByType[ty], id)
	}
	return inst, nil
}

// K returns the number of distinct types in the instance.
func (in *Instance) K() int { return len(in.Types) }

// NewDP builds a DP sized for this instance's inventory.
func (in *Instance) NewDP() (*DP, error) {
	return New(in.Set.Latency, in.Types, in.Counts)
}

// OptimalRT returns the optimal reception completion time of the set,
// computed with the Lemma 4 DP: it fills the set's table and looks the
// set up. It fails if the state space exceeds MaxStates (too many
// distinct types for the instance size).
func OptimalRT(set *model.MulticastSet) (int64, error) {
	inst, t, err := buildTable(set, 1)
	if err != nil {
		return 0, err
	}
	return t.Lookup(inst.SourceType, inst.Counts)
}

// Schedule computes an optimal schedule for the set via the DP: it fills
// the set's table and rebuilds the set's tree from it.
func Schedule(set *model.MulticastSet) (*model.Schedule, error) {
	inst, t, err := buildTable(set, 1)
	if err != nil {
		return nil, err
	}
	return t.Schedule(inst)
}

// Solver is the model.Scheduler adapter for the DP.
type Solver struct{}

// Name implements model.Scheduler.
func (Solver) Name() string { return "dp-optimal" }

// Schedule implements model.Scheduler.
func (Solver) Schedule(set *model.MulticastSet) (*model.Schedule, error) {
	return Schedule(set)
}

var _ model.Scheduler = Solver{}

// Table is a fully materialized optimal-schedule table for a network: the
// constant-time lookup structure Theorem 2's closing remark describes. It
// is safe for concurrent lookups once built. Tables come from BuildTable
// (a fresh DP fill), from ReadTableBytes (a persisted fill loaded back from
// disk) or from OpenTableMapped (the value array aliases a
// read-only mmap of the file); all are bit-identical by construction.
//
// A mapped table's backing memory lives until Close. Callers that share a
// table across goroutines while a cache may evict (and Close) it bracket
// each use with Retain/Release so the unmap is deferred past every
// in-flight lookup; see the lifecycle methods below.
type Table struct {
	dp *DP
	lc tableLifecycle
}

// BuildTable analyzes the set, runs the DP over every state and returns
// the table.
func BuildTable(set *model.MulticastSet) (*Table, error) {
	return BuildTableParallel(set, 1)
}

// BuildTableParallel is BuildTable with the layered fill sharded across up
// to workers goroutines (0 selects GOMAXPROCS). The resulting table is
// identical to the sequential build.
func BuildTableParallel(set *model.MulticastSet, workers int) (*Table, error) {
	_, t, err := buildTable(set, workers)
	return t, err
}

// buildTable analyzes the set and fills its network's table with up to
// workers goroutines.
func buildTable(set *model.MulticastSet, workers int) (*Instance, *Table, error) {
	inst, err := Analyze(set)
	if err != nil {
		return nil, nil, err
	}
	dp, err := inst.NewDP()
	if err != nil {
		return nil, nil, err
	}
	dp.FillAllParallel(workers)
	return inst, &Table{dp: dp}, nil
}

// FinishTable seals a DP filled by the caller (FillAll or
// FillAllParallel) into a Table. It fails if the DP was never filled.
func (dp *DP) FinishTable() (*Table, error) {
	if !dp.filled {
		return nil, errUnfilled
	}
	return &Table{dp: dp}, nil
}

// K returns the number of types in the table's network.
func (t *Table) K() int { return t.dp.K() }

// Counts returns the per-type destination counts the table covers.
func (t *Table) Counts() []int { return t.dp.Counts() }

// States returns the number of stored states (after source-plane dedup).
func (t *Table) States() int64 { return t.dp.States() }

// Planes returns the number of distinct source planes stored; K()/Planes()
// is the dedup memory saving factor.
func (t *Table) Planes() int { return t.dp.Planes() }

// Latency returns the network latency the table was built for.
func (t *Table) Latency() int64 { return t.dp.latency }

// Types returns the sorted type inventory the table covers.
func (t *Table) Types() []Type { return t.dp.Types() }

// Lookup returns the optimal reception completion time for a multicast
// from a source of type srcType to counts[j] destinations of type j.
func (t *Table) Lookup(srcType int, counts []int) (int64, error) {
	if err := t.dp.checkQuery(srcType, counts); err != nil {
		return 0, err
	}
	return t.dp.value[t.dp.stateIndex(srcType, t.dp.encodeVec(counts))], nil
}

// Schedule rebuilds the canonical optimal schedule for an analyzed
// instance of the table's own network (same latency and type inventory,
// counts within the table's) from the stored values. The realized tree is
// re-scored through the flat engine and must achieve exactly the table's
// value for inst, or the rebuild from values is buggy (or the values
// hostile); one O(n) pass, negligible next to the table fill. It never
// fills: a built or loaded table holds every value, so a read-only
// mapping is only read.
func (t *Table) Schedule(inst *Instance) (*model.Schedule, error) {
	if inst.Set.Latency != t.dp.latency || !slices.Equal(inst.Types, t.dp.types) {
		return nil, fmt.Errorf("exact: instance is not drawn from the table's network")
	}
	opt, err := t.Lookup(inst.SourceType, inst.Counts)
	if err != nil {
		return nil, err
	}
	sch, err := t.dp.ScheduleFor(inst.Set, inst.SourceType, inst.Counts, inst.DestsByType)
	if err != nil {
		return nil, err
	}
	var eng model.Engine
	eng.Attach(sch)
	if eng.RT() != opt {
		return nil, fmt.Errorf("exact: reconstructed schedule scores %d, DP optimum is %d", eng.RT(), opt)
	}
	return sch, nil
}

// LookupSet answers an arbitrary multicast drawn from the table's network
// in constant time (the paper's Theorem 2 closing remark): the set must
// have the table's latency, every node's type must appear in the table's
// inventory, and the per-type destination counts must be within the
// table's bounds. ok is false when the set is not covered.
func (t *Table) LookupSet(set *model.MulticastSet) (rt int64, ok bool) {
	if set == nil || len(set.Nodes) == 0 || set.Latency != t.dp.latency {
		return 0, false
	}
	typeOf := func(n model.Node) int {
		for j, ty := range t.dp.types {
			if ty.Send == n.Send && ty.Recv == n.Recv {
				return j
			}
		}
		return -1
	}
	src := typeOf(set.Nodes[0])
	if src < 0 {
		return 0, false
	}
	counts := make([]int, len(t.dp.types))
	for _, n := range set.Nodes[1:] {
		j := typeOf(n)
		if j < 0 {
			return 0, false
		}
		counts[j]++
		if counts[j] > t.dp.counts[j] {
			return 0, false
		}
	}
	v, err := t.Lookup(src, counts)
	if err != nil {
		return 0, false
	}
	return v, true
}
