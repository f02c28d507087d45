package nodemodel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
)

// New validates and builds an instance.
func New(costs []int64) (*Instance, error) {
	if len(costs) == 0 {
		return nil, fmt.Errorf("nodemodel: no nodes")
	}
	for i, c := range costs {
		if c <= 0 {
			return nil, fmt.Errorf("nodemodel: node %d has non-positive cost %d", i, c)
		}
	}
	return &Instance{Costs: append([]int64(nil), costs...)}, nil
}

func randInstance(rng *rand.Rand, n int) *Instance {
	costs := make([]int64, n+1)
	for i := range costs {
		costs[i] = 1 + rng.Int63n(8)
	}
	inst, err := New(costs)
	if err != nil {
		panic(err)
	}
	return inst
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty instance accepted")
	}
	if _, err := New([]int64{1, 0}); err == nil {
		t.Error("zero cost accepted")
	}
	if _, err := New([]int64{2, 3}); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestTimesHandComputed(t *testing.T) {
	// Source cost 2, children costs 1 and 3.
	inst, err := New([]int64{2, 1, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTree(4)
	if err := tr.AddChild(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddChild(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddChild(1, 3); err != nil {
		t.Fatal(err)
	}
	hold, completion, err := inst.Times(tr)
	if err != nil {
		t.Fatal(err)
	}
	// hold(1) = 2, hold(2) = 4, hold(3) = hold(1) + c(1) = 3.
	want := []int64{0, 2, 4, 3}
	for v, w := range want {
		if hold[v] != w {
			t.Errorf("hold[%d] = %d, want %d", v, hold[v], w)
		}
	}
	if completion != 4 {
		t.Errorf("completion = %d, want 4", completion)
	}
}

func TestGreedyValidAndLayeredDeliveries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		inst := randInstance(rng, 1+rng.Intn(40))
		tr, err := inst.Greedy()
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		hold, _, err := inst.Times(tr)
		if err != nil {
			t.Fatal(err)
		}
		// Faster nodes hold the message no later than slower ones
		// (greedy is layered in this model too).
		for a := 1; a < len(inst.Costs); a++ {
			for b := 1; b < len(inst.Costs); b++ {
				if inst.Costs[a] < inst.Costs[b] && hold[a] > hold[b] {
					t.Fatalf("trial %d: cost(%d)=%d < cost(%d)=%d but hold %d > %d",
						trial, a, inst.Costs[a], b, inst.Costs[b], hold[a], hold[b])
				}
			}
		}
	}
}

func TestFactor2Bound(t *testing.T) {
	// Reference [13]: greedy is within a factor of two of optimal in the
	// node model. Verify on random small instances and record the worst
	// observed ratio.
	rng := rand.New(rand.NewSource(2))
	worst := 1.0
	for trial := 0; trial < 120; trial++ {
		inst := randInstance(rng, 1+rng.Intn(7))
		tr, err := inst.Greedy()
		if err != nil {
			t.Fatal(err)
		}
		g, err := inst.Completion(tr)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := inst.BruteForce()
		if err != nil {
			t.Fatal(err)
		}
		if opt == 0 {
			continue
		}
		ratio := float64(g) / float64(opt)
		if ratio > worst {
			worst = ratio
		}
		if g > 2*opt {
			t.Fatalf("trial %d: greedy %d > 2x optimal %d (factor-2 bound violated)", trial, g, opt)
		}
		if g < opt {
			t.Fatalf("trial %d: greedy %d below optimal %d (oracle broken)", trial, g, opt)
		}
	}
	t.Logf("worst greedy/opt ratio observed: %.3f", worst)
}

func TestBruteForceLimit(t *testing.T) {
	inst := randInstance(rand.New(rand.NewSource(3)), MaxBruteForceN+1)
	if _, err := inst.BruteForce(); err == nil {
		t.Error("oversized brute force accepted")
	}
	empty, err := New([]int64{5})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := empty.BruteForce()
	if err != nil || opt != 0 {
		t.Errorf("source-only optimum = %d, %v", opt, err)
	}
}

func TestFromReceiveSendAndToSchedule(t *testing.T) {
	set, err := cluster.Generate(cluster.GenConfig{N: 20, K: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	inst := FromReceiveSend(set)
	if inst.N() != set.N() {
		t.Fatalf("N mismatch")
	}
	for i, n := range set.Nodes {
		if inst.Costs[i] != n.Send {
			t.Errorf("cost[%d] = %d, want %d", i, inst.Costs[i], n.Send)
		}
	}
	tr, err := inst.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := ToSchedule(tr, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Validate(); err != nil {
		t.Fatalf("cross-model schedule invalid: %v", err)
	}
	// Cross-model cost: the receive-send evaluation is at least the
	// node-model estimate (extra overheads can only add).
	nmTime, err := inst.Completion(tr)
	if err != nil {
		t.Fatal(err)
	}
	if model.RT(sch) < nmTime {
		t.Errorf("receive-send RT %d below node-model estimate %d", model.RT(sch), nmTime)
	}
}

func TestToScheduleSizeMismatch(t *testing.T) {
	set, err := cluster.Generate(cluster.GenConfig{N: 3, K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTree(2)
	if _, err := ToSchedule(tr, set); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestTreeErrors(t *testing.T) {
	tr := NewTree(3)
	if err := tr.AddChild(1, 2); err == nil {
		t.Error("unattached parent accepted")
	}
	if err := tr.AddChild(0, 0); err == nil {
		t.Error("root as child accepted")
	}
	if err := tr.AddChild(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddChild(0, 1); err == nil {
		t.Error("double attach accepted")
	}
	if err := tr.Validate(); err == nil {
		t.Error("incomplete tree validated")
	}
}

func TestGreedyEqualsBruteForceOnUniformCosts(t *testing.T) {
	// With identical costs the node model reduces to the classic
	// homogeneous single-port broadcast, where greedy doubling is optimal.
	for n := 1; n <= 7; n++ {
		costs := make([]int64, n+1)
		for i := range costs {
			costs[i] = 3
		}
		inst, err := New(costs)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := inst.Greedy()
		if err != nil {
			t.Fatal(err)
		}
		g, err := inst.Completion(tr)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := inst.BruteForce()
		if err != nil {
			t.Fatal(err)
		}
		if g != opt {
			t.Errorf("n=%d: greedy %d != optimal %d on uniform costs", n, g, opt)
		}
	}
}
