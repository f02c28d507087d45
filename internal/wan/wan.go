// Package wan extends the receive-send model with per-link latencies, the
// direction of Bhat, Raghavendra and Prasanna (the paper's reference [5]):
// in wide-area networks the latency between two nodes depends on whether
// they share a LAN or talk over a long-haul link, so the single global L
// of the receive-send model under-specifies the system.
//
// The package holds the latency-matrix instance and generates clustered
// topologies for the E15 experiment that quantifies the cost of
// pretending a WAN is a LAN. Schedules over a topology are ordinary
// model schedules: model.LinkModel scores them against the matrix, and
// heur.ModelGreedy under that model is the WAN-aware greedy (the paper's
// greedy with per-destination latency terms).
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
