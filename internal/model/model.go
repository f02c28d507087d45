// Package model implements the heterogeneous receive-send communication
// model of Banikazemi et al. (1999) as used by Libeskind-Hadas and Hartline,
// "Efficient Multicast in Heterogeneous Networks of Workstations" (ICPP
// 2000 Workshop on Network-Based Computing).
//
// In this model every node p carries a sending overhead osend(p) and a
// receiving overhead orecv(p); a single network latency L applies to every
// point-to-point transmission. A multicast schedule is a directed tree whose
// root is the source; each vertex forwards the message to its children one
// at a time in a fixed left-to-right order. If r(v) is the time at which v
// has finished incurring its receiving overhead (r(source)=0), then the i-th
// child w of v is delivered at
//
//	d(w) = r(v) + i*osend(v) + L
//
// and completes reception at r(w) = d(w) + orecv(w). The optimal multicast
// problem asks for the schedule minimizing the maximum reception time, which
// is NP-complete in the strong sense.
package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// NodeID identifies a node within a MulticastSet. IDs are indices into the
// set's Nodes slice: the source is always ID 0.
type NodeID = int

// Node describes one workstation participating in a multicast. Overheads
// are positive integers measured in abstract time units, exactly as the
// paper assumes. For a concrete message the caller folds the fixed and
// per-byte overhead components into these values (see package cluster).
type Node struct {
	// Send is the sending overhead osend: the time the node is busy per
	// outgoing transmission.
	Send int64
	// Recv is the receiving overhead orecv: the time the node is busy
	// absorbing an incoming message after it is delivered.
	Recv int64
	// Name is an optional human-readable label used in rendered output.
	Name string
}

// Ratio returns the receive-send ratio orecv/osend of the node as a float.
func (n Node) Ratio() float64 { return float64(n.Recv) / float64(n.Send) }

// MulticastSet is an instance of the multicast problem: a source node,
// destination nodes, and the global network latency.
type MulticastSet struct {
	// Latency is the network latency L incurred by every transmission.
	Latency int64
	// Nodes holds the participating nodes; Nodes[0] is the source and
	// Nodes[1:] are the destinations.
	Nodes []Node
}

// NewMulticastSet builds a multicast set from a source node, destination
// nodes and a latency, and validates it.
func NewMulticastSet(latency int64, source Node, dests ...Node) (*MulticastSet, error) {
	s := &MulticastSet{Latency: latency, Nodes: append([]Node{source}, dests...)}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// N returns the number of destination nodes (the paper's n).
func (s *MulticastSet) N() int { return len(s.Nodes) - 1 }

// Source returns the source node (index 0).
func (s *MulticastSet) Source() Node { return s.Nodes[0] }

// MaxCost caps a set's cost bound n·(max Send + max Recv + L), where n
// counts every node. No base-model schedule of the set completes later
// than that bound, so no time sum overflows int64 or reaches the exact
// DP's inf sentinel (MaxInt64/4).
const MaxCost = math.MaxInt64 / 8

// costBound returns n·(max Send + max Recv + L) over the set's nodes, or
// ok=false when it exceeds MaxCost. Overheads and latency must be
// positive.
func (s *MulticastSet) costBound() (bound int64, ok bool) {
	return s.costBoundAt(s.Latency)
}

// costBoundAt is costBound with latency lat in place of the set's own:
// cost models whose latency term is not s.Latency (a matrix maximum, a
// node-model lambda) bound their instances with it. lat must be >= 0.
func (s *MulticastSet) costBoundAt(lat int64) (bound int64, ok bool) {
	var maxSend, maxRecv int64
	for _, n := range s.Nodes {
		maxSend = max(maxSend, n.Send)
		maxRecv = max(maxRecv, n.Recv)
	}
	if maxSend > MaxCost || maxRecv > MaxCost || lat > MaxCost {
		return 0, false
	}
	hop, n := maxSend+maxRecv+lat, int64(len(s.Nodes)) // hop <= 3·MaxCost
	if hop > MaxCost/n {
		return 0, false
	}
	return n * hop, true
}

// Validate checks the model's assumptions: at least a source, positive
// integer overheads and latency, overheads directly correlated with node
// speed (osend(p) < osend(q) iff orecv(p) < orecv(q)), and a cost bound
// within MaxCost; the correlation check is O(n log n).
func (s *MulticastSet) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("model: multicast set has no nodes")
	}
	if s.Latency <= 0 {
		return fmt.Errorf("model: latency must be a positive integer, got %d", s.Latency)
	}
	for i, n := range s.Nodes {
		if n.Send <= 0 || n.Recv <= 0 {
			return fmt.Errorf("model: node %d has non-positive overheads (send=%d recv=%d)", i, n.Send, n.Recv)
		}
	}
	if _, ok := s.costBound(); !ok {
		return fmt.Errorf("model: %d nodes × (max send + max recv + latency) exceeds %d", len(s.Nodes), int64(MaxCost))
	}
	// Correlation: after sorting by Send, Recv must be non-decreasing and
	// equal Sends must have equal Recvs ordered consistently. The paper
	// assumes osend(p) < osend(q) <=> orecv(p) < orecv(q).
	idx := make([]int, len(s.Nodes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		na, nb := s.Nodes[idx[a]], s.Nodes[idx[b]]
		if na.Send != nb.Send {
			return na.Send < nb.Send
		}
		return na.Recv < nb.Recv
	})
	for i := 1; i < len(idx); i++ {
		prev, cur := s.Nodes[idx[i-1]], s.Nodes[idx[i]]
		if prev.Send < cur.Send && prev.Recv > cur.Recv {
			return fmt.Errorf("model: overheads not correlated: node %q (send=%d recv=%d) vs node %q (send=%d recv=%d)",
				prev.Name, prev.Send, prev.Recv, cur.Name, cur.Send, cur.Recv)
		}
		if prev.Send == cur.Send && prev.Recv != cur.Recv {
			return fmt.Errorf("model: overheads not correlated: equal send overhead %d with receive overheads %d and %d",
				prev.Send, prev.Recv, cur.Recv)
		}
	}
	return nil
}

// Clone returns a deep copy of the multicast set.
func (s *MulticastSet) Clone() *MulticastSet {
	nodes := make([]Node, len(s.Nodes))
	copy(nodes, s.Nodes)
	return &MulticastSet{Latency: s.Latency, Nodes: nodes}
}

// SortedDestinations returns the destination IDs (1..n) in non-decreasing
// order of overhead, the canonical indexing p1..pn the paper uses. Ties are
// broken by ID for determinism.
func (s *MulticastSet) SortedDestinations() []NodeID {
	ids := make([]NodeID, 0, s.N())
	for i := 1; i < len(s.Nodes); i++ {
		ids = append(ids, i)
	}
	slices.SortFunc(ids, func(a, b NodeID) int {
		na, nb := &s.Nodes[a], &s.Nodes[b]
		if c := cmp.Compare(na.Send, nb.Send); c != 0 {
			return c
		}
		if c := cmp.Compare(na.Recv, nb.Recv); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ids
}

// RatioStats summarizes the receive-send ratios of a multicast set.
type RatioStats struct {
	// AlphaMin and AlphaMax bound the receive-send ratios over all nodes
	// (source included, matching Theorem 1's indexing 0 <= i <= n).
	AlphaMin, AlphaMax float64
	// Beta is the difference between the maximum and minimum receiving
	// overheads over the destination nodes (indices 1..n).
	Beta int64
}

// Ratios computes the Theorem 1 parameters for the set.
func (s *MulticastSet) Ratios() RatioStats {
	st := RatioStats{AlphaMin: s.Nodes[0].Ratio(), AlphaMax: s.Nodes[0].Ratio()}
	for _, n := range s.Nodes {
		r := n.Ratio()
		if r < st.AlphaMin {
			st.AlphaMin = r
		}
		if r > st.AlphaMax {
			st.AlphaMax = r
		}
	}
	if s.N() > 0 {
		minR, maxR := s.Nodes[1].Recv, s.Nodes[1].Recv
		for _, n := range s.Nodes[2:] {
			if n.Recv < minR {
				minR = n.Recv
			}
			if n.Recv > maxR {
				maxR = n.Recv
			}
		}
		st.Beta = maxR - minR
	}
	return st
}

// Scheduler constructs a multicast schedule for a multicast set. All
// scheduling algorithms in this repository (the paper's greedy, the exact
// DP, and the baselines) implement this interface.
type Scheduler interface {
	// Name identifies the algorithm in tables and traces.
	Name() string
	// Schedule builds a schedule for the set. Implementations must not
	// retain or mutate the set.
	Schedule(set *MulticastSet) (*Schedule, error)
}
