// Package wan extends the receive-send model with per-link latencies, the
// direction of Bhat, Raghavendra and Prasanna (the paper's reference [5]):
// in wide-area networks the latency between two nodes depends on whether
// they share a LAN or talk over a long-haul link, so the single global L
// of the receive-send model under-specifies the system.
//
// The package reuses the ordered-tree schedules of package model but
// evaluates them against a latency matrix, provides a WAN-aware greedy
// (the paper's greedy with per-destination latency terms), and generates
// clustered topologies for the E15 experiment that quantifies the cost of
// pretending a WAN is a LAN.
package wan

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// Topology is a receive-send instance with per-ordered-pair latencies.
type Topology struct {
	// Nodes as in the base model; Nodes[0] is the source.
	Nodes []model.Node
	// Lat[u][v] is the network latency from u to v (>= 1 for u != v).
	Lat [][]int64
}

// Validate checks overhead positivity, correlation (via the base model)
// and the latency matrix shape.
func (t *Topology) Validate() error {
	base := &model.MulticastSet{Latency: 1, Nodes: t.Nodes}
	if err := base.Validate(); err != nil {
		return err
	}
	n := len(t.Nodes)
	if len(t.Lat) != n {
		return fmt.Errorf("wan: latency matrix has %d rows for %d nodes", len(t.Lat), n)
	}
	for u, row := range t.Lat {
		if len(row) != n {
			return fmt.Errorf("wan: latency row %d has %d entries", u, len(row))
		}
		for v, l := range row {
			if u == v {
				continue
			}
			if l < 1 {
				return fmt.Errorf("wan: latency %d->%d is %d (must be >= 1)", u, v, l)
			}
		}
	}
	return nil
}

// N returns the destination count.
func (t *Topology) N() int { return len(t.Nodes) - 1 }

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

// BaseSet returns the topology's nodes as a base-model instance using the
// given uniform latency (for running latency-oblivious schedulers).
func (t *Topology) BaseSet(latency int64) *model.MulticastSet {
	return &model.MulticastSet{Latency: latency, Nodes: append([]model.Node(nil), t.Nodes...)}
}

// MinLatency returns the smallest off-diagonal latency.
func (t *Topology) MinLatency() int64 {
	min := int64(-1)
	for u, row := range t.Lat {
		for v, l := range row {
			if u == v {
				continue
			}
			if min == -1 || l < min {
				min = l
			}
		}
	}
	if min == -1 {
		min = 1
	}
	return min
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

// Greedy is the WAN-aware adaptation of the paper's greedy: destinations
// are inserted in non-decreasing overhead order; each is delivered at the
// earliest completion over all attached senders, where a sender's
// completion now includes the pair latency. Because the key depends on
// the (sender, destination) pair, the priority queue degenerates to a
// scan: O(n^2) total, documented and acceptable at WAN scales.
func (t *Topology) Greedy() (*model.Schedule, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// The embedded set's scalar latency is unused by topology evaluation;
	// carry the minimum so base-model invariants (positive L) hold.
	set := t.BaseSet(t.MinLatency())
	sch := model.NewSchedule(set)
	n := len(t.Nodes)
	attached := make([]bool, n)
	attached[0] = true
	reception := make([]int64, n)
	sends := make([]int64, n)
	for _, pi := range set.SortedDestinations() {
		best, bestKey := -1, int64(0)
		for v := 0; v < n; v++ {
			if !attached[v] {
				continue
			}
			key := reception[v] + (sends[v]+1)*t.Nodes[v].Send + t.Lat[v][pi]
			if best == -1 || key < bestKey {
				best, bestKey = v, key
			}
		}
		if err := sch.AddChild(model.NodeID(best), pi); err != nil {
			return nil, err
		}
		sends[best]++
		attached[pi] = true
		reception[pi] = bestKey + t.Nodes[pi].Recv
	}
	// Bind the schedule to its cost model: the embedded set's scalar
	// latency is a placeholder, so scoring this plan with base-model
	// ComputeTimes would silently report wrong WAN times. The binding makes
	// that path panic instead; evaluate with t.ComputeTimes or
	// model.EvalTimes.
	sch.BindModel(&model.LinkModel{Lat: t.Lat})
	return sch, nil
}

// ClusteredConfig parameterizes the two-level WAN generator.
type ClusteredConfig struct {
	// Clusters is the number of LAN islands (>= 1); nodes are spread
	// round-robin.
	Clusters int
	// NodesPerCluster is the number of nodes in each island (the source
	// lives in island 0).
	NodesPerCluster int
	// LANLatency and WANLatency are the intra/inter-island latencies.
	LANLatency, WANLatency int64
	// K is the number of workstation types (default 2).
	K int
	// MaxSend bounds sending overheads (default 16).
	MaxSend int64
	// Seed drives the RNG.
	Seed int64
}

// GenerateClustered builds a WAN of LAN islands: small latency within an
// island, large across islands, heterogeneous nodes drawn as in package
// cluster.
func GenerateClustered(cfg ClusteredConfig) (*Topology, error) {
	if cfg.Clusters < 1 || cfg.NodesPerCluster < 1 {
		return nil, fmt.Errorf("wan: need at least one cluster and one node per cluster")
	}
	if cfg.LANLatency < 1 || cfg.WANLatency < cfg.LANLatency {
		return nil, fmt.Errorf("wan: latencies must satisfy 1 <= LAN <= WAN")
	}
	if cfg.MaxSend > model.MaxCost {
		// The type draws add up to MaxSend plus a same-sized receive
		// overhead; past MaxCost those sums overflow.
		return nil, fmt.Errorf("wan: MaxSend %d exceeds %d", cfg.MaxSend, int64(model.MaxCost))
	}
	k := cfg.K
	if k <= 0 {
		k = 2
	}
	maxSend := cfg.MaxSend
	if maxSend <= 0 {
		maxSend = 16
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Draw k correlated types.
	types := make([]model.Node, k)
	send, recv := int64(0), int64(0)
	prevSend := int64(0)
	for i := range types {
		send += 1 + rng.Int63n(maxSend/int64(k)+1)
		if send > maxSend {
			// The cumulative draw can overshoot by up to k (each of the k
			// type draws adds at least 1 on top of maxSend/k); clamp so the
			// documented MaxSend bound actually holds for every type.
			send = maxSend
		}
		if send == prevSend {
			// Two consecutive draws clamped onto the cap: duplicate the
			// previous type wholesale. Equal send with a different recv
			// would break the correlated-overheads invariant Validate
			// enforces.
			types[i] = types[i-1]
			types[i].Name = fmt.Sprintf("type%d", i)
			continue
		}
		r := send + rng.Int63n(send+1)
		if r <= recv {
			r = recv + 1
		}
		recv = r
		prevSend = send
		types[i] = model.Node{Send: send, Recv: recv, Name: fmt.Sprintf("type%d", i)}
	}
	total := cfg.Clusters * cfg.NodesPerCluster
	nodes := make([]model.Node, total)
	island := make([]int, total)
	for i := range nodes {
		nodes[i] = types[rng.Intn(k)]
		island[i] = i % cfg.Clusters
	}
	lat := make([][]int64, total)
	for u := range lat {
		lat[u] = make([]int64, total)
		for v := range lat[u] {
			if u == v {
				continue
			}
			if island[u] == island[v] {
				lat[u][v] = cfg.LANLatency
			} else {
				lat[u][v] = cfg.WANLatency
			}
		}
	}
	topo := &Topology{Nodes: nodes, Lat: lat}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	return topo, nil
}
