package postal

import (
	"testing"

	"repro/internal/model"
)

// TestNodeModelRecoversPostalTimes pins model.NodeModel to the postal
// reference: with unit send overheads and Lambda = lambda - 1 (the
// postal lambda includes the sender's busy unit, the node model charges
// it separately), the model's delivery times on an OptimalTree-shaped
// schedule must equal the tree's Finish times exactly, and its RT the
// postal completion time.
func TestNodeModelRecoversPostalTimes(t *testing.T) {
	for _, lambda := range []int64{1, 2, 3, 5, 9} {
		for _, n := range []int{1, 2, 7, 23, 64} {
			tree, err := OptimalTree(lambda, n)
			if err != nil {
				t.Fatal(err)
			}
			set := &model.MulticastSet{Latency: 1, Nodes: make([]model.Node, n+1)}
			for i := range set.Nodes {
				set.Nodes[i] = model.Node{Send: 1, Recv: 1}
			}
			sch := model.NewSchedule(set)
			queue := []int{0}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, c := range tree.Children[v] {
					if err := sch.AddChild(model.NodeID(v), model.NodeID(c)); err != nil {
						t.Fatal(err)
					}
					queue = append(queue, c)
				}
			}
			sch.BindModel(model.NodeModel{Lambda: lambda - 1})
			var tm model.Times
			if err := model.EvalTimes(sch, &tm); err != nil {
				t.Fatal(err)
			}
			if tm.RT != tree.CompletionTime() {
				t.Fatalf("lambda=%d n=%d: NodeModel RT = %d, postal completion = %d",
					lambda, n, tm.RT, tree.CompletionTime())
			}
			for v := 0; v <= n; v++ {
				if tm.Delivery[v] != tree.Finish[v] {
					t.Fatalf("lambda=%d n=%d node %d: NodeModel delivery = %d, postal Finish = %d",
						lambda, n, v, tm.Delivery[v], tree.Finish[v])
				}
			}
		}
	}
}
