// Package nodemodel implements the heterogeneous *node* model of
// Banikazemi et al. (1998) and Hall et al. (1998) -- the paper's
// references [2] and [9] -- as the prior-art substrate the receive-send
// model refines.
//
// In the node model each node x carries a single message initiation cost
// c(x). When x sends to y starting at time t, x is busy during
// [t, t+c(x)] and y holds the message at t+c(x), immediately free to
// forward it. There is no separate receiving overhead or network latency.
// Finding optimal multicasts in this model is NP-complete [9]; the greedy
// algorithm (fastest-node-first) is within a factor of two of optimal
// (Libeskind-Hadas et al., reference [13]), which package tests verify
// empirically.
//
// The package also converts between the two models, so the benchmark
// harness can quantify what planning with the poorer model costs when the
// network actually behaves per the receive-send model (experiment E12).
package nodemodel

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/pqueue"
)

// Instance is a node-model multicast instance: per-node message initiation
// costs, index 0 being the source.
type Instance struct {
	Costs []int64
}

// FromReceiveSend projects a receive-send instance onto the node model by
// keeping only the sending overheads (the receiving overheads and latency
// are invisible to this model).
func FromReceiveSend(set *model.MulticastSet) *Instance {
	costs := make([]int64, len(set.Nodes))
	for i, n := range set.Nodes {
		costs[i] = n.Send
	}
	return &Instance{Costs: costs}
}

// N returns the number of destinations.
func (in *Instance) N() int { return len(in.Costs) - 1 }

// Tree is an ordered multicast tree over the instance's nodes; the root is
// node 0 and children lists are in transmission order.
type Tree struct {
	Parent   []int
	Children [][]int
}

// NewTree creates an empty tree for n+1 nodes.
func NewTree(numNodes int) *Tree {
	p := make([]int, numNodes)
	for i := range p {
		p[i] = -1
	}
	return &Tree{Parent: p, Children: make([][]int, numNodes)}
}

// AddChild appends child to parent's transmission list.
func (t *Tree) AddChild(parent, child int) error {
	if parent < 0 || parent >= len(t.Parent) || child <= 0 || child >= len(t.Parent) {
		return fmt.Errorf("nodemodel: AddChild(%d, %d) out of range", parent, child)
	}
	if parent != 0 && t.Parent[parent] == -1 {
		return fmt.Errorf("nodemodel: parent %d not attached", parent)
	}
	if t.Parent[child] != -1 {
		return fmt.Errorf("nodemodel: child %d already attached", child)
	}
	t.Parent[child] = parent
	t.Children[parent] = append(t.Children[parent], child)
	return nil
}

// Validate checks that the tree spans every node exactly once.
func (t *Tree) Validate() error {
	for v := 1; v < len(t.Parent); v++ {
		if t.Parent[v] == -1 {
			return fmt.Errorf("nodemodel: node %d unattached", v)
		}
	}
	visited := make([]bool, len(t.Parent))
	visited[0] = true
	count := 1
	stack := []int{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.Children[v] {
			if visited[c] {
				return fmt.Errorf("nodemodel: node %d visited twice", c)
			}
			visited[c] = true
			count++
			stack = append(stack, c)
		}
	}
	if count != len(t.Parent) {
		return fmt.Errorf("nodemodel: %d of %d nodes reachable", count, len(t.Parent))
	}
	return nil
}

// Times returns each node's message-holding time under the node model:
// hold(root) = 0 and the i-th child w of v has
// hold(w) = hold(v) + i*c(v). The maximum is the completion time.
func (in *Instance) Times(t *Tree) ([]int64, int64, error) {
	if len(t.Parent) != len(in.Costs) {
		return nil, 0, fmt.Errorf("nodemodel: tree has %d nodes, instance %d", len(t.Parent), len(in.Costs))
	}
	hold := make([]int64, len(in.Costs))
	var completion int64
	stack := []int{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, w := range t.Children[v] {
			hold[w] = hold[v] + int64(i+1)*in.Costs[v]
			if hold[w] > completion {
				completion = hold[w]
			}
			stack = append(stack, w)
		}
	}
	return hold, completion, nil
}

// Completion is Times reduced to the completion time.
func (in *Instance) Completion(t *Tree) (int64, error) {
	_, c, err := in.Times(t)
	return c, err
}

// Greedy is the fastest-node-first greedy of [2]/[9]: destinations sorted
// by non-decreasing cost; each is delivered at the earliest possible time.
// O(n log n).
func (in *Instance) Greedy() (*Tree, error) {
	n := len(in.Costs)
	t := NewTree(n)
	order := make([]int, 0, n-1)
	for v := 1; v < n; v++ {
		order = append(order, v)
	}
	sort.Slice(order, func(a, b int) bool {
		if in.Costs[order[a]] != in.Costs[order[b]] {
			return in.Costs[order[a]] < in.Costs[order[b]]
		}
		return order[a] < order[b]
	})
	pq := pqueue.New(n)
	pq.Push(0, in.Costs[0]) // source's first transmission completes at c(0)
	for _, d := range order {
		it, ok := pq.Pop()
		if !ok {
			return nil, fmt.Errorf("nodemodel: internal error: empty queue")
		}
		if err := t.AddChild(it.Value, d); err != nil {
			return nil, err
		}
		// d holds the message at it.Key and can complete its first send
		// c(d) later; the sender's next send completes c(sender) later.
		pq.Push(d, it.Key+in.Costs[d])
		pq.Push(it.Value, it.Key+in.Costs[it.Value])
	}
	return t, nil
}

// MaxBruteForceN caps the node-model brute force.
const MaxBruteForceN = 8

// BruteForce exhaustively finds the optimal completion time with
// branch-and-bound; the factor-2 oracle for tests and E12.
func (in *Instance) BruteForce() (int64, error) {
	n := in.N()
	if n > MaxBruteForceN {
		return 0, fmt.Errorf("nodemodel: brute force limited to %d destinations, got %d", MaxBruteForceN, n)
	}
	if n == 0 {
		return 0, nil
	}
	total := len(in.Costs)
	attached := make([]bool, total)
	attached[0] = true
	hold := make([]int64, total)
	sends := make([]int64, total)
	best := int64(1) << 62
	var rec func(remaining int, curMax int64)
	rec = func(remaining int, curMax int64) {
		if curMax >= best {
			return
		}
		if remaining == 0 {
			best = curMax
			return
		}
		for r := 1; r < total; r++ {
			if attached[r] {
				continue
			}
			// Symmetry: skip receivers with the same cost as an earlier
			// unattached one.
			dup := false
			for r2 := 1; r2 < r; r2++ {
				if !attached[r2] && in.Costs[r2] == in.Costs[r] {
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
				h := hold[s] + (sends[s]+1)*in.Costs[s]
				newMax := curMax
				if h > newMax {
					newMax = h
				}
				if newMax >= best {
					continue
				}
				attached[r] = true
				hold[r] = h
				sends[s]++
				rec(remaining-1, newMax)
				attached[r] = false
				sends[s]--
			}
		}
	}
	rec(n, 0)
	return best, nil
}

// ToSchedule reinterprets a node-model tree as a receive-send schedule for
// the given set (which must have the same node count), enabling
// cross-model evaluation: plan with the poor model, pay with the rich one.
func ToSchedule(t *Tree, set *model.MulticastSet) (*model.Schedule, error) {
	if len(t.Parent) != len(set.Nodes) {
		return nil, fmt.Errorf("nodemodel: tree has %d nodes, set %d", len(t.Parent), len(set.Nodes))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	sch := model.NewSchedule(set)
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range t.Children[v] {
			if err := sch.AddChild(model.NodeID(v), model.NodeID(c)); err != nil {
				return nil, err
			}
			queue = append(queue, c)
		}
	}
	return sch, nil
}
