package cluster

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func TestDefaultNetworkValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default network invalid: %v", err)
	}
}

func TestProfileNodeFor(t *testing.T) {
	p := Profile{Name: "x", SendFixed: 10, SendPerKB: 5, RecvFixed: 20, RecvPerKB: 7}
	n := p.NodeFor(0)
	if n.Send != 10 || n.Recv != 20 {
		t.Errorf("zero-length node = %+v", n)
	}
	n = p.NodeFor(1)
	if n.Send != 15 || n.Recv != 27 {
		t.Errorf("1-byte node = %+v (1 byte rounds to 1 KB)", n)
	}
	n = p.NodeFor(4096)
	if n.Send != 10+5*4 || n.Recv != 20+7*4 {
		t.Errorf("4KB node = %+v", n)
	}
	n = p.NodeFor(4097)
	if n.Send != 10+5*5 {
		t.Errorf("4KB+1 node = %+v (should round up to 5 KB)", n)
	}
}

func TestLatencyFor(t *testing.T) {
	net := Default()
	if got := net.LatencyFor(0); got != net.LatencyFixed {
		t.Errorf("LatencyFor(0) = %d", got)
	}
	if got := net.LatencyFor(2048); got != net.LatencyFixed+2*net.LatencyPerKB {
		t.Errorf("LatencyFor(2048) = %d", got)
	}
}

func TestNetworkValidateRejectsUncorrelated(t *testing.T) {
	net := Network{
		LatencyFixed: 1,
		Profiles: []Profile{
			{Name: "a", SendFixed: 10, SendPerKB: 1, RecvFixed: 10, RecvPerKB: 9},
			{Name: "b", SendFixed: 20, SendPerKB: 2, RecvFixed: 5, RecvPerKB: 1},
		},
	}
	if err := net.Validate(); err == nil {
		t.Error("uncorrelated profiles accepted")
	}
	crossing := Network{
		LatencyFixed: 1,
		Profiles: []Profile{
			// Fixed parts ordered one way, per-KB the other: the speed
			// order flips with message length.
			{Name: "a", SendFixed: 10, SendPerKB: 9, RecvFixed: 10, RecvPerKB: 9},
			{Name: "b", SendFixed: 20, SendPerKB: 2, RecvFixed: 20, RecvPerKB: 2},
		},
	}
	if err := crossing.Validate(); err == nil {
		t.Error("length-crossing profiles accepted")
	}
}

func TestSpecInstance(t *testing.T) {
	spec := Spec{Network: Default(), SourceProfile: 2, Counts: []int{3, 2, 1}}
	set, err := spec.Instance(8 * 1024)
	if err != nil {
		t.Fatalf("Instance: %v", err)
	}
	if set.N() != 6 {
		t.Errorf("N = %d, want 6", set.N())
	}
	if err := set.Validate(); err != nil {
		t.Errorf("instance invalid: %v", err)
	}
	// Source is the slow profile.
	slow := Default().Profiles[2].NodeFor(8 * 1024)
	if set.Nodes[0].Send != slow.Send || set.Nodes[0].Recv != slow.Recv {
		t.Errorf("source = %+v, want %+v", set.Nodes[0], slow)
	}
	// Larger messages make everything slower but keep validity.
	big, err := spec.Instance(1 << 20)
	if err != nil {
		t.Fatalf("Instance(1MB): %v", err)
	}
	if big.Nodes[0].Send <= set.Nodes[0].Send {
		t.Error("1MB message should have larger overheads than 8KB")
	}
}

func TestSpecValidation(t *testing.T) {
	good := Spec{Network: Default(), SourceProfile: 0, Counts: []int{1, 0, 0}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := []Spec{
		{Network: Default(), SourceProfile: 9, Counts: []int{1, 0, 0}},
		{Network: Default(), SourceProfile: 0, Counts: []int{1, 0}},
		{Network: Default(), SourceProfile: 0, Counts: []int{0, 0, 0}},
		{Network: Default(), SourceProfile: 0, Counts: []int{-1, 1, 0}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestGenerateValidAndDeterministic(t *testing.T) {
	cfg := GenConfig{N: 50, K: 4, Seed: 99}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated set invalid: %v", err)
	}
	if a.N() != 50 {
		t.Errorf("N = %d, want 50", a.N())
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatal("same seed produced different sets")
		}
	}
	cfg.Seed = 100
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Nodes {
		if a.Nodes[i] != c.Nodes[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sets (suspicious)")
	}
}

func TestGenerateRatioRange(t *testing.T) {
	set, err := Generate(GenConfig{N: 200, K: 5, RatioMin: 1.05, RatioMax: 1.85, MaxSend: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rs := set.Ratios()
	// Rounding and monotonicity clamping can push ratios slightly outside
	// the target band, but they must stay near it.
	if rs.AlphaMin < 1.0 || rs.AlphaMax > 2.0 {
		t.Errorf("ratios [%v, %v] far outside requested [1.05, 1.85]", rs.AlphaMin, rs.AlphaMax)
	}
}

func TestGenerateSourceTypeAndWeights(t *testing.T) {
	set, err := Generate(GenConfig{N: 100, K: 2, SourceType: 1, Weights: []float64{0.9, 0.1}, Seed: 17, MaxSend: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The source must be the slower of the two types.
	var maxSend int64
	for _, n := range set.Nodes {
		if n.Send > maxSend {
			maxSend = n.Send
		}
	}
	if set.Nodes[0].Send != maxSend {
		t.Errorf("source send %d, want the slow type %d", set.Nodes[0].Send, maxSend)
	}
	// With 90% weight on the fast type, most destinations are fast.
	fast := 0
	for _, n := range set.Nodes[1:] {
		if n.Send != maxSend {
			fast++
		}
	}
	if fast < 60 {
		t.Errorf("only %d/100 destinations of the heavily weighted type", fast)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GenConfig{N: -1}); err == nil {
		t.Error("negative N accepted")
	}
	if _, err := Generate(GenConfig{N: 1, K: 2, SourceType: 5}); err == nil {
		t.Error("out-of-range source type accepted")
	}
	if _, err := Generate(GenConfig{N: 1, K: 2, Weights: []float64{1}}); err == nil {
		t.Error("wrong-length weights accepted")
	}
	if _, err := Generate(GenConfig{N: 1, RatioMin: 2, RatioMax: 1}); err == nil {
		t.Error("inverted ratio range accepted")
	}
	// K distinct send overheads cannot come from fewer than K values; the
	// draw loop used to spin forever here.
	if _, err := Generate(GenConfig{N: 4, K: 4, MaxSend: 3}); err == nil {
		t.Error("K > MaxSend accepted")
	}
	if _, err := Generate(GenConfig{N: 4, K: 3, MaxSend: 3}); err != nil {
		t.Errorf("K == MaxSend rejected: %v", err)
	}
}

// TestGenerateAlwaysValidQuick property-tests the generator across seeds
// and sizes.
func TestGenerateAlwaysValidQuick(t *testing.T) {
	f := func(seed int64, n uint8, k uint8) bool {
		cfg := GenConfig{N: int(n % 64), K: 1 + int(k%6), Seed: seed}
		set, err := Generate(cfg)
		if err != nil {
			return false
		}
		return set.Validate() == nil && set.N() == cfg.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecInstanceZeroLengthMessage(t *testing.T) {
	spec := Spec{Network: Default(), SourceProfile: 0, Counts: []int{2, 0, 0}}
	set, err := spec.Instance(0)
	if err != nil {
		t.Fatalf("Instance(0): %v", err)
	}
	var want model.Node = Default().Profiles[0].NodeFor(0)
	if set.Nodes[0] != want {
		t.Errorf("zero-length source = %+v, want %+v", set.Nodes[0], want)
	}
}
