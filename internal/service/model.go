package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/model"
	"repro/internal/wan"
)

// ModelParams selects the cost model a request is scheduled and scored
// under. The zero value is the paper's base receive-send model, which
// keeps every existing request (and its cache keys) byte-identical.
type ModelParams struct {
	// Model is "" or "base" (receive-send), "wan" (per-link latency
	// matrix), "pipeline" (M-segment pipelined multicast), "reduce"
	// (reverse-tree reduction) or "barrier" (reduce + broadcast).
	Model string `json:"model,omitempty"`
	// Segments is the pipeline segment count M >= 1 (model "pipeline").
	Segments int `json:"segments,omitempty"`
	// Lat is an explicit latency matrix indexed by node id (model "wan");
	// it must match the embedded set's node count.
	Lat [][]int64 `json:"lat,omitempty"`
	// WAN generates a clustered WAN instance instead of an embedded set
	// (model "wan"; mutually exclusive with both Lat and "set").
	WAN *WANSpec `json:"wan,omitempty"`
}

// WANSpec parameterizes the clustered two-level WAN generator
// (wan.GenerateClustered): LAN islands with small intra- and large
// inter-island latency and heterogeneous node types.
type WANSpec struct {
	Clusters        int   `json:"clusters"`
	NodesPerCluster int   `json:"nodes_per_cluster"`
	LANLatency      int64 `json:"lan_latency"`
	WANLatency      int64 `json:"wan_latency"`
	K               int   `json:"k,omitempty"`
	MaxSend         int64 `json:"max_send,omitempty"`
	Seed            int64 `json:"seed,omitempty"`
}

// resolvedModel is a request's cost model plus its cache-key component.
type resolvedModel struct {
	cm  model.CostModel // nil for the base model
	key string          // "" for base; otherwise e.g. "wan:<digest>"
}

// maxWANNodes caps a generated WAN instance's node count and type count.
// A spec is a few bytes of JSON, but its latency matrix is n², so the
// request body does not bound it the way it bounds an explicit "lat".
const maxWANNodes = 2048

// generate builds the clustered topology the spec describes.
func (w *WANSpec) generate() (*wan.Topology, error) {
	if w.Clusters > 0 && w.NodesPerCluster > 0 && w.Clusters > maxWANNodes/w.NodesPerCluster {
		return nil, fmt.Errorf("wan spec: %d clusters × %d nodes exceeds %d nodes", w.Clusters, w.NodesPerCluster, maxWANNodes)
	}
	if w.K > maxWANNodes {
		return nil, fmt.Errorf("wan spec: k=%d exceeds %d types", w.K, maxWANNodes)
	}
	return wan.GenerateClustered(wan.ClusteredConfig{
		Clusters: w.Clusters, NodesPerCluster: w.NodesPerCluster,
		LANLatency: w.LANLatency, WANLatency: w.WANLatency,
		K: w.K, MaxSend: w.MaxSend, Seed: w.Seed,
	})
}

// resolveInstance decodes a request's instance under its model selection
// and returns the canonical instance plus the resolved model.
//
// The base model canonicalizes as before (destinations sorted by
// overhead). The WAN model does NOT sort: the latency matrix is indexed
// by node id and distinguishes equal-overhead nodes, so sorting would
// conflate genuinely different instances — names are stripped and the
// embedded scalar latency is normalized to the matrix minimum instead,
// and the matrix digest joins the cache key. The remaining models score
// by node type only, so the base canonicalization stays sound for them.
func resolveInstance(p ModelParams, raw json.RawMessage) (*model.MulticastSet, resolvedModel, error) {
	if p.Model != "pipeline" && p.Segments != 0 {
		return nil, resolvedModel{}, fmt.Errorf("\"segments\" applies to model \"pipeline\" only")
	}
	if p.Model != "wan" && (p.Lat != nil || p.WAN != nil) {
		return nil, resolvedModel{}, fmt.Errorf("\"lat\" and \"wan\" apply to model \"wan\" only")
	}
	if p.Model == "wan" {
		var set *model.MulticastSet
		var lat [][]int64
		switch {
		case p.WAN != nil && p.Lat != nil:
			return nil, resolvedModel{}, fmt.Errorf("\"lat\" and \"wan\" are mutually exclusive")
		case p.WAN != nil:
			if len(raw) != 0 && string(raw) != "null" {
				return nil, resolvedModel{}, fmt.Errorf("\"wan\" generates the instance; omit \"set\"")
			}
			topo, err := p.WAN.generate()
			if err != nil {
				return nil, resolvedModel{}, err
			}
			set, lat = topo.BaseSet(topo.MinLatency()), topo.Lat
		case p.Lat != nil:
			var err error
			if set, err = decodeSet(raw); err != nil {
				return nil, resolvedModel{}, err
			}
			lat = p.Lat
		default:
			return nil, resolvedModel{}, fmt.Errorf("model \"wan\" needs \"lat\" or \"wan\"")
		}
		canon := canonicalizeWAN(set, lat)
		cm := &model.LinkModel{Lat: lat}
		if err := cm.Validate(canon); err != nil {
			return nil, resolvedModel{}, err
		}
		return canon, resolvedModel{cm: cm, key: "wan:" + latDigest(lat)}, nil
	}
	cm, err := model.ByName(p.Model, p.Segments)
	if err != nil {
		return nil, resolvedModel{}, err
	}
	set, err := decodeSet(raw)
	if err != nil {
		return nil, resolvedModel{}, err
	}
	if cm == nil {
		return Canonicalize(set), resolvedModel{}, nil
	}
	if err := cm.Validate(set); err != nil {
		return nil, resolvedModel{}, err
	}
	key := cm.Name()
	if p.Model == "pipeline" {
		key = "pipe:" + strconv.Itoa(p.Segments)
	}
	return Canonicalize(set), resolvedModel{cm: cm, key: key}, nil
}

// canonicalizeWAN strips names and normalizes the embedded scalar latency
// to the matrix minimum, preserving destination order (the matrix is
// id-indexed). The input is not mutated.
func canonicalizeWAN(set *model.MulticastSet, lat [][]int64) *model.MulticastSet {
	out := &model.MulticastSet{Latency: minLatOf(lat), Nodes: make([]model.Node, len(set.Nodes))}
	for i, n := range set.Nodes {
		out.Nodes[i] = model.Node{Send: n.Send, Recv: n.Recv}
	}
	return out
}

// minLatOf is the smallest off-diagonal latency (1 for degenerate
// matrices, matching wan.Topology.MinLatency).
func minLatOf(lat [][]int64) int64 {
	min := int64(-1)
	for u, row := range lat {
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

// latDigest is a 64-bit FNV-1a digest of a latency matrix, the WAN
// component of the plan-cache key.
func latDigest(lat [][]int64) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(lat)))
	for _, row := range lat {
		for _, v := range row {
			put(v)
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// KeyCanonicalModel is KeyCanonical with the cost model folded into the
// key. Base-model keys are unchanged; model keys get an "m=<model>|"
// prefix no algorithm name produces, so WAN (or pipelined, ...) plans can
// never collide with base plans of the same network.
func KeyCanonicalModel(canon *model.MulticastSet, algo string, seed int64, rm resolvedModel) string {
	k := KeyCanonical(canon, algo, seed)
	if rm.key == "" {
		return k
	}
	return "m=" + rm.key + "|" + k
}
