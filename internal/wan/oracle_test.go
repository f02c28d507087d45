package wan

import (
	"fmt"

	"repro/internal/model"
)

// Topology.ComputeTimes walks the schedule tree against the matrix
// directly and shares no code with the engine's per-link latency gather,
// so the parity tests use it as the independent oracle for
// model.LinkModel.

// Uniform builds a topology with a single latency everywhere, equivalent
// to the base model instance.
func Uniform(set *model.MulticastSet) *Topology {
	n := len(set.Nodes)
	lat := make([][]int64, n)
	for u := range lat {
		lat[u] = make([]int64, n)
		for v := range lat[u] {
			if u != v {
				lat[u][v] = set.Latency
			}
		}
	}
	return &Topology{Nodes: append([]model.Node(nil), set.Nodes...), Lat: lat}
}

// ComputeTimes evaluates a schedule tree against the latency matrix:
// the i-th child w of v is delivered at r(v) + i*osend(v) + Lat[v][w].
func (t *Topology) ComputeTimes(sch *model.Schedule) (model.Times, error) {
	if len(sch.Set.Nodes) != len(t.Nodes) {
		return model.Times{}, fmt.Errorf("wan: schedule over %d nodes, topology has %d", len(sch.Set.Nodes), len(t.Nodes))
	}
	n := len(t.Nodes)
	tm := model.Times{Delivery: make([]int64, n), Reception: make([]int64, n)}
	stack := []model.NodeID{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rv := tm.Reception[v]
		sv := t.Nodes[v].Send
		for i, w := range sch.Children(v) {
			d := rv + int64(i+1)*sv + t.Lat[v][w]
			tm.Delivery[w] = d
			tm.Reception[w] = d + t.Nodes[w].Recv
			if d > tm.DT {
				tm.DT = d
			}
			if tm.Reception[w] > tm.RT {
				tm.RT = tm.Reception[w]
			}
			stack = append(stack, w)
		}
	}
	return tm, nil
}
