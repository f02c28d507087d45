package model

import (
	"math/rand"
	"testing"
)

// randSchedule builds a random valid schedule over n destinations with
// correlated overheads.
func randIncrSet(rng *rand.Rand, n int) *MulticastSet {
	nodes := make([]Node, n+1)
	send := int64(1)
	for i := range nodes {
		send += int64(rng.Intn(3))
		// recv is a monotone pure function of send so the model's
		// correlation invariant holds.
		nodes[i] = Node{Send: send, Recv: send + send&1}
	}
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	set := &MulticastSet{Latency: int64(1 + rng.Intn(3)), Nodes: nodes}
	if err := set.Validate(); err != nil {
		panic(err)
	}
	return set
}

func randIncrSchedule(rng *rand.Rand, set *MulticastSet) *Schedule {
	sch := NewSchedule(set)
	attached := []NodeID{0}
	for v := 1; v < len(set.Nodes); v++ {
		p := attached[rng.Intn(len(attached))]
		sch.MustAddChild(p, v)
		attached = append(attached, v)
	}
	return sch
}

func requireTimesEqual(t *testing.T, step int, got *Times, sch *Schedule) {
	t.Helper()
	want := ComputeTimes(sch)
	if got.RT != want.RT || got.DT != want.DT {
		t.Fatalf("step %d: incremental RT/DT = %d/%d, full recompute = %d/%d\ntree %s",
			step, got.RT, got.DT, want.RT, want.DT, sch)
	}
	for v := range want.Delivery {
		if got.Delivery[v] != want.Delivery[v] || got.Reception[v] != want.Reception[v] {
			t.Fatalf("step %d: node %d: incremental d/r = %d/%d, full = %d/%d",
				step, v, got.Delivery[v], got.Reception[v], want.Delivery[v], want.Reception[v])
		}
	}
}

// TestEngineMatchesFullRecompute drives long random sequences of the
// heuristics' move types (swap; leaf relocation with undo) through the
// engine — swaps committed in place, relocations re-attached — and
// cross-checks every step against a full ComputeTimes.
func TestEngineMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		set := randIncrSet(rng, n)
		sch := randIncrSchedule(rng, set)
		var eng Engine
		var tm Times
		eng.Attach(sch)
		eng.TimesInto(&tm)
		requireTimesEqual(t, -1, &tm, sch)
		for step := 0; step < 60; step++ {
			switch rng.Intn(2) {
			case 0: // swap two destinations
				a := NodeID(1 + rng.Intn(n))
				b := NodeID(1 + rng.Intn(n))
				if a == b {
					continue
				}
				if err := sch.SwapNodes(a, b); err != nil {
					t.Fatal(err)
				}
				eng.CommitSwap(a, b)
			case 1: // relocate a random leaf to the tail of another parent
				leaf := NodeID(1 + rng.Intn(n))
				if !sch.IsLeaf(leaf) {
					continue
				}
				target := NodeID(rng.Intn(n + 1))
				if target == leaf || target == sch.Parent(leaf) {
					continue
				}
				oldParent, oldIdx, err := sch.RemoveLeaf(leaf)
				if err != nil {
					t.Fatal(err)
				}
				if err := sch.InsertChild(target, leaf, len(sch.Children(target))); err != nil {
					t.Fatal(err)
				}
				// Half the time, undo the move the way local search does.
				if rng.Intn(2) == 0 {
					if _, _, err := sch.RemoveLeaf(leaf); err != nil {
						t.Fatal(err)
					}
					if err := sch.InsertChild(oldParent, leaf, oldIdx); err != nil {
						t.Fatal(err)
					}
				}
				eng.Attach(sch)
			}
			eng.TimesInto(&tm)
			requireTimesEqual(t, step, &tm, sch)
		}
	}
}

// TestComputeTimesIntoAllocFree verifies the reuse contract: after the
// first call, repeated evaluation of same-sized schedules allocates
// nothing.
func TestComputeTimesIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set := randIncrSet(rng, 40)
	sch := randIncrSchedule(rng, set)
	var tm Times
	ComputeTimesInto(sch, &tm)
	allocs := testing.AllocsPerRun(50, func() {
		ComputeTimesInto(sch, &tm)
	})
	if allocs != 0 {
		t.Errorf("ComputeTimesInto allocates %.1f per call after warmup", allocs)
	}
}

// TestRTIntoMatchesRT pins the shorthand to the allocating original.
func TestRTIntoMatchesRT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tm Times
	for trial := 0; trial < 10; trial++ {
		set := randIncrSet(rng, 1+rng.Intn(20))
		sch := randIncrSchedule(rng, set)
		if got, want := RTInto(sch, &tm), RT(sch); got != want {
			t.Fatalf("trial %d: RTInto = %d, RT = %d", trial, got, want)
		}
	}
}

// TestCopyFromReusesBuffers checks CopyFrom's structural fidelity and its
// error on mismatched sizes.
func TestCopyFromReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	set := randIncrSet(rng, 12)
	a := randIncrSchedule(rng, set)
	b := NewSchedule(set)
	if err := b.CopyFrom(a); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("CopyFrom result not Equal to source")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mutating the copy must not affect the original.
	x := NodeID(1 + rng.Intn(12))
	y := NodeID(1 + rng.Intn(12))
	if x != y {
		if err := b.SwapNodes(x, y); err != nil {
			t.Fatal(err)
		}
		if a.Equal(b) {
			t.Fatal("copy shares structure with source")
		}
	}
	other := randIncrSet(rng, 5)
	if err := NewSchedule(other).CopyFrom(a); err == nil {
		t.Error("CopyFrom accepted mismatched sizes")
	}
}
