// Package cluster generates heterogeneous-network-of-workstations (HNOW)
// multicast instances.
//
// The underlying measurement model follows Banikazemi et al. (1999), the
// paper's reference [3]: each workstation class has fixed and
// message-length-dependent components for both sending and receiving
// overheads, and the network latency likewise has fixed and per-length
// parts. For a concrete message length the components fold into the single
// integer overheads of the receive-send model, exactly as the paper's
// footnote prescribes. Published benchmarks cited by the paper put
// receive-send ratios in the range 1.05 to 1.85; the random generator
// defaults to that range.
//
// Time units are abstract (think microseconds); only ratios matter to the
// algorithms.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/model"
)

// Profile is a workstation class with fixed + per-KB overhead components.
type Profile struct {
	Name string
	// SendFixed and SendPerKB give osend = SendFixed + SendPerKB*ceil(bytes/1024).
	SendFixed, SendPerKB int64
	// RecvFixed and RecvPerKB give orecv analogously.
	RecvFixed, RecvPerKB int64
}

// NodeFor folds the profile's components for a message of the given length
// into a model node.
func (p Profile) NodeFor(msgBytes int64) model.Node {
	kb := ceilKB(msgBytes)
	return model.Node{
		Name: p.Name,
		Send: p.SendFixed + p.SendPerKB*kb,
		Recv: p.RecvFixed + p.RecvPerKB*kb,
	}
}

func ceilKB(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return (bytes + 1023) / 1024
}

// Network is a parameterized HNOW: a latency model plus the workstation
// classes present.
type Network struct {
	// LatencyFixed and LatencyPerKB give L = LatencyFixed + LatencyPerKB*ceil(bytes/1024).
	LatencyFixed, LatencyPerKB int64
	Profiles                   []Profile
}

// LatencyFor folds the latency components for a message length.
func (n Network) LatencyFor(msgBytes int64) int64 {
	return n.LatencyFixed + n.LatencyPerKB*ceilKB(msgBytes)
}

// Validate checks that the network yields valid model instances for every
// message length: positive components and profile overheads correlated in
// both the fixed and per-KB parts (so the model's speed-correlation
// assumption holds regardless of length).
func (n Network) Validate() error {
	if n.LatencyFixed <= 0 || n.LatencyPerKB < 0 {
		return fmt.Errorf("cluster: latency components (%d, %d) invalid", n.LatencyFixed, n.LatencyPerKB)
	}
	if len(n.Profiles) == 0 {
		return fmt.Errorf("cluster: network has no profiles")
	}
	for i, p := range n.Profiles {
		if p.SendFixed <= 0 || p.RecvFixed <= 0 || p.SendPerKB < 0 || p.RecvPerKB < 0 {
			return fmt.Errorf("cluster: profile %q has invalid components %+v", p.Name, p)
		}
		if i > 0 {
			q := n.Profiles[i-1]
			sendLE := q.SendFixed <= p.SendFixed && q.SendPerKB <= p.SendPerKB
			sendGE := q.SendFixed >= p.SendFixed && q.SendPerKB >= p.SendPerKB
			recvLE := q.RecvFixed <= p.RecvFixed && q.RecvPerKB <= p.RecvPerKB
			recvGE := q.RecvFixed >= p.RecvFixed && q.RecvPerKB >= p.RecvPerKB
			if !((sendLE && recvLE) || (sendGE && recvGE)) {
				return fmt.Errorf("cluster: profiles %q and %q are not speed-correlated for all message lengths", q.Name, p.Name)
			}
		}
	}
	return nil
}

// Default returns a three-class network loosely modeled on the late-90s
// SPARC/PC clusters of the paper's testbed references: a fast class
// (ratio ~1.3), a mid class (~1.2) and a slow class (~1.5), with
// per-KB components dominating for large messages.
func Default() Network {
	return Network{
		LatencyFixed: 10, LatencyPerKB: 8,
		Profiles: []Profile{
			{Name: "fast", SendFixed: 15, SendPerKB: 10, RecvFixed: 20, RecvPerKB: 12},
			{Name: "mid", SendFixed: 25, SendPerKB: 14, RecvFixed: 30, RecvPerKB: 18},
			{Name: "slow", SendFixed: 60, SendPerKB: 35, RecvFixed: 90, RecvPerKB: 55},
		},
	}
}

// Spec is a concrete cluster: a network, the source's profile index and
// the number of destination nodes per profile.
type Spec struct {
	Network       Network
	SourceProfile int
	Counts        []int
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if err := s.Network.Validate(); err != nil {
		return err
	}
	if s.SourceProfile < 0 || s.SourceProfile >= len(s.Network.Profiles) {
		return fmt.Errorf("cluster: source profile %d out of range", s.SourceProfile)
	}
	if len(s.Counts) != len(s.Network.Profiles) {
		return fmt.Errorf("cluster: %d counts for %d profiles", len(s.Counts), len(s.Network.Profiles))
	}
	total := 0
	for i, c := range s.Counts {
		if c < 0 {
			return fmt.Errorf("cluster: negative count for profile %d", i)
		}
		total += c
	}
	if total == 0 {
		return fmt.Errorf("cluster: no destinations")
	}
	return nil
}

// Instance realizes the spec for a message of the given length as a
// multicast set. Destinations appear grouped by profile in profile order.
func (s Spec) Instance(msgBytes int64) (*model.MulticastSet, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	set := &model.MulticastSet{Latency: s.Network.LatencyFor(msgBytes)}
	set.Nodes = append(set.Nodes, s.Network.Profiles[s.SourceProfile].NodeFor(msgBytes))
	for pi, c := range s.Counts {
		node := s.Network.Profiles[pi].NodeFor(msgBytes)
		for j := 0; j < c; j++ {
			set.Nodes = append(set.Nodes, node)
		}
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: spec yields invalid set: %w", err)
	}
	return set, nil
}

// GenConfig parameterizes the random instance generator.
type GenConfig struct {
	// N is the number of destinations.
	N int
	// K is the number of distinct workstation types (default 3).
	K int
	// RatioMin and RatioMax bound the receive-send ratios; the defaults
	// are the benchmark range 1.05-1.85 the paper cites.
	RatioMin, RatioMax float64
	// MaxSend bounds the sending overheads (default 64; minimum drawn is 1).
	MaxSend int64
	// Latency is the network latency L (default 10).
	Latency int64
	// SourceType fixes the source's type index in [0,K); -1 draws it
	// randomly (the default zero value uses type 0, the fastest).
	SourceType int
	// Weights optionally skews the per-type node distribution; len K.
	Weights []float64
	// Seed drives the deterministic RNG.
	Seed int64
}

func (c *GenConfig) fill() {
	if c.K <= 0 {
		c.K = 3
	}
	if c.RatioMin == 0 {
		c.RatioMin = 1.05
	}
	if c.RatioMax == 0 {
		c.RatioMax = 1.85
	}
	if c.MaxSend <= 0 {
		c.MaxSend = 64
	}
	if c.Latency <= 0 {
		c.Latency = 10
	}
}

// Generate draws a random valid multicast set. Types have strictly
// increasing sending overheads; each type's receive-send ratio is drawn
// uniformly from [RatioMin, RatioMax], with receiving overheads clamped to
// preserve the model's speed correlation.
func Generate(cfg GenConfig) (*model.MulticastSet, error) {
	cfg.fill()
	if cfg.N < 0 {
		return nil, fmt.Errorf("cluster: negative N")
	}
	if cfg.RatioMin < 0 || cfg.RatioMax < cfg.RatioMin {
		return nil, fmt.Errorf("cluster: invalid ratio range [%v, %v]", cfg.RatioMin, cfg.RatioMax)
	}
	if int64(cfg.K) > cfg.MaxSend {
		return nil, fmt.Errorf("cluster: %d distinct send overheads cannot be drawn from [1,%d]", cfg.K, cfg.MaxSend)
	}
	if cfg.SourceType >= cfg.K {
		return nil, fmt.Errorf("cluster: source type %d out of range [0,%d)", cfg.SourceType, cfg.K)
	}
	if cfg.Weights != nil && len(cfg.Weights) != cfg.K {
		return nil, fmt.Errorf("cluster: %d weights for %d types", len(cfg.Weights), cfg.K)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Distinct ascending sending overheads.
	sends := make([]int64, 0, cfg.K)
	used := map[int64]bool{}
	for len(sends) < cfg.K {
		s := 1 + rng.Int63n(cfg.MaxSend)
		if !used[s] {
			used[s] = true
			sends = append(sends, s)
		}
	}
	sortInt64(sends)
	types := make([]model.Node, cfg.K)
	prevRecv := int64(0)
	for i, s := range sends {
		ratio := cfg.RatioMin + rng.Float64()*(cfg.RatioMax-cfg.RatioMin)
		r := int64(math.Round(float64(s) * ratio))
		if r < s {
			r = s // ratios below 1 rounded up to keep recv >= send shape
		}
		if r <= prevRecv {
			r = prevRecv + 1
		}
		prevRecv = r
		types[i] = model.Node{Send: s, Recv: r, Name: fmt.Sprintf("type%d", i)}
	}
	pick := func() int {
		if cfg.Weights == nil {
			return rng.Intn(cfg.K)
		}
		total := 0.0
		for _, w := range cfg.Weights {
			total += w
		}
		x := rng.Float64() * total
		for i, w := range cfg.Weights {
			x -= w
			if x <= 0 {
				return i
			}
		}
		return cfg.K - 1
	}
	srcType := cfg.SourceType
	if srcType < 0 {
		srcType = rng.Intn(cfg.K)
	}
	set := &model.MulticastSet{Latency: cfg.Latency, Nodes: []model.Node{types[srcType]}}
	for i := 0; i < cfg.N; i++ {
		set.Nodes = append(set.Nodes, types[pick()])
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: generated invalid set: %w", err)
	}
	return set, nil
}

func sortInt64(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
