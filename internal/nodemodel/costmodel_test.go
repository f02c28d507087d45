package nodemodel

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// TestNodeModelMatchesInstanceTimes pins model.NodeModel with Lambda = 0
// to the retained reference evaluator Instance.Times: identical hold
// times on every node, identical completion, across random costs and
// random trees.
func TestNodeModelMatchesInstanceTimes(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(14)
		costs := make([]int64, n+1)
		for i := range costs {
			costs[i] = 1 + rng.Int63n(9)
		}
		in, err := New(costs)
		if err != nil {
			t.Fatal(err)
		}
		tree := NewTree(n + 1)
		for v := 1; v <= n; v++ {
			if err := tree.AddChild(rng.Intn(v), v); err != nil {
				t.Fatal(err)
			}
		}
		hold, completion, err := in.Times(tree)
		if err != nil {
			t.Fatal(err)
		}

		// The same tree as a Schedule over a set whose Send overheads are
		// the node-model costs (Recv is ignored by the model).
		set := &model.MulticastSet{Latency: 1, Nodes: make([]model.Node, n+1)}
		for i := range set.Nodes {
			set.Nodes[i] = model.Node{Send: costs[i], Recv: 1}
		}
		sch, err := ToSchedule(tree, set)
		if err != nil {
			t.Fatal(err)
		}
		sch.BindModel(model.NodeModel{})
		var tm model.Times
		if err := model.EvalTimes(sch, &tm); err != nil {
			t.Fatal(err)
		}
		if tm.RT != completion || tm.DT != completion {
			t.Fatalf("seed %d: NodeModel RT/DT = %d/%d, Instance.Times completion = %d", seed, tm.RT, tm.DT, completion)
		}
		for v := 0; v <= n; v++ {
			if tm.Delivery[v] != hold[v] {
				t.Fatalf("seed %d node %d: NodeModel hold = %d, reference %d", seed, v, tm.Delivery[v], hold[v])
			}
		}
	}
}
