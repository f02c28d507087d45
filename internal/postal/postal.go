// Package postal implements broadcast in the postal model of Bar-Noy and
// Kipnis (Mathematical Systems Theory 27, 1994) -- the paper's reference
// [4] and one of the homogeneous models whose optimal-broadcast results
// the paper contrasts with the heterogeneous case.
//
// In the postal model with latency lambda >= 1, a node that starts sending
// a message at time t is busy for 1 time unit and the message arrives at
// the receiver at time t + lambda. The minimum time to broadcast to n
// nodes is the smallest t with N_lambda(t) >= n+1, where
//
//	N_lambda(t) = 1                                    for 0 <= t < lambda
//	N_lambda(t) = N_lambda(t-1) + N_lambda(t-lambda)   for t >= lambda
//
// (a generalized Fibonacci sequence; lambda = 1 gives doubling, i.e. the
// binomial tree). The optimal strategy is for every informed node to send
// continuously to fresh destinations; OptimalTree materializes it.
//
// The package also adapts the postal tree shape as a heterogeneous
// baseline: the receive-send instance is collapsed to an effective integer
// lambda and the resulting tree is evaluated under the full model.
package postal

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Tree is an ordered broadcast tree over nodes 0..n (0 = source), the
// same shape convention as nodemodel.Tree.
type Tree struct {
	Parent   []int
	Children [][]int
	// Finish[v] is the postal-model time at which v holds the message.
	Finish []int64
}

// OptimalTree builds an optimal postal-model broadcast tree for n
// destinations: every informed node starts a new transmission each time
// unit, and the tree records who informed whom. Nodes are labeled in
// order of information time (node 0 first).
func OptimalTree(lambda int64, n int) (*Tree, error) {
	if lambda < 1 {
		return nil, fmt.Errorf("postal: lambda must be >= 1, got %d", lambda)
	}
	if n < 0 {
		return nil, fmt.Errorf("postal: negative n")
	}
	t := &Tree{
		Parent:   make([]int, n+1),
		Children: make([][]int, n+1),
		Finish:   make([]int64, n+1),
	}
	t.Parent[0] = -1
	if n == 0 {
		return t, nil
	}
	// Simulate unit time steps: every node holding the message begins one
	// send per unit (it is busy exactly one unit per send), addressed to
	// the next unlabeled node; the receiver holds the message lambda units
	// after the send begins. Labels are assigned in send-start order, so
	// label i is the i-th earliest-informed destination.
	next := 1
	now := int64(0)
	active := []int{0} // nodes currently holding the message
	joined := make([]bool, n+1)
	joined[0] = true
	for next <= n {
		for _, v := range active {
			if next > n {
				break
			}
			child := next
			next++
			t.Parent[child] = v
			t.Children[v] = append(t.Children[v], child)
			t.Finish[child] = now + lambda
		}
		now++
		// Nodes whose message has arrived by the new time join the
		// senders, in label order for determinism.
		for c := 1; c < next; c++ {
			if !joined[c] && t.Finish[c] <= now {
				joined[c] = true
				active = append(active, c)
			}
		}
	}
	return t, nil
}

// Scheduler adapts the postal-model optimal tree shape as a baseline for
// heterogeneous receive-send instances: lambda is estimated from the mean
// overheads (lambda ~ (L + mean recv) / mean send, at least 1), the tree
// shape is built for that lambda, and destinations fill the shape in
// fastest-first label order (earlier-informed positions get faster
// nodes).
type Scheduler struct{}

// Name implements model.Scheduler.
func (Scheduler) Name() string { return "postal" }

// EffectiveLambda estimates the postal latency of a receive-send instance.
func EffectiveLambda(set *model.MulticastSet) int64 {
	var sumSend, sumRecv int64
	for _, n := range set.Nodes {
		sumSend += n.Send
		sumRecv += n.Recv
	}
	count := int64(len(set.Nodes))
	meanSend := float64(sumSend) / float64(count)
	meanRecv := float64(sumRecv) / float64(count)
	lambda := int64(math.Round((float64(set.Latency) + meanRecv) / meanSend))
	if lambda < 1 {
		lambda = 1
	}
	return lambda
}

// Schedule implements model.Scheduler.
func (Scheduler) Schedule(set *model.MulticastSet) (*model.Schedule, error) {
	n := set.N()
	tree, err := OptimalTree(EffectiveLambda(set), n)
	if err != nil {
		return nil, err
	}
	// Map postal labels (information order) to destinations fastest-first.
	order := set.SortedDestinations()
	sch := model.NewSchedule(set)
	queue := []int{0}
	idFor := func(label int) model.NodeID {
		if label == 0 {
			return 0
		}
		return order[label-1]
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range tree.Children[v] {
			if err := sch.AddChild(idFor(v), idFor(c)); err != nil {
				return nil, err
			}
			queue = append(queue, c)
		}
	}
	return sch, nil
}

var _ model.Scheduler = Scheduler{}
