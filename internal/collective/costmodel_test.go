package collective

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
)

// TestDeepChainIterative is the regression for the recursive evaluators:
// Reduce used to recurse once per tree level, so a chain schedule — depth
// equal to the node count — overflowed the goroutine stack long before
// 50k nodes. It is iterative now, as is the engine's ready fold; the
// closed form of the uniform chain pins the arithmetic while the depth
// pins the iteration.
func TestDeepChainIterative(t *testing.T) {
	const n = 50_000
	const send, recv, lat = 2, 3, 4
	set := &model.MulticastSet{Latency: lat, Nodes: make([]model.Node, n+1)}
	for i := range set.Nodes {
		set.Nodes[i] = model.Node{Send: send, Recv: recv}
	}
	sch := model.NewSchedule(set)
	for v := model.NodeID(1); v <= n; v++ {
		if err := sch.AddChild(v-1, v); err != nil {
			t.Fatal(err)
		}
	}

	red, err := Reduce(sch)
	if err != nil {
		t.Fatal(err)
	}
	// ready[k] = ready[k+1] + send + lat + recv telescopes down the chain.
	want := int64(n) * (send + lat + recv)
	if red.Done != want {
		t.Fatalf("chain reduce Done = %d, want %d", red.Done, want)
	}
	if red.Ready[n] != 0 || red.Ready[1] != want-(send+lat+recv) {
		t.Fatalf("chain ready times off: ready[n]=%d ready[1]=%d", red.Ready[n], red.Ready[1])
	}

	if _, err := BarrierRT(sch); err != nil {
		t.Fatal(err)
	}

	// The model forms survive the same depth.
	var tm model.Times
	bound := sch.Clone()
	bound.BindModel(model.ReduceModel{})
	if err := model.EvalTimes(bound, &tm); err != nil {
		t.Fatal(err)
	}
	if tm.RT != want {
		t.Fatalf("ReduceModel RT = %d, want %d", tm.RT, want)
	}
}

func randCollectiveSchedule(t *testing.T, rng *rand.Rand, set *model.MulticastSet) *model.Schedule {
	t.Helper()
	sch := model.NewSchedule(set)
	attached := []model.NodeID{0}
	for _, i := range rng.Perm(len(set.Nodes) - 1) {
		v := model.NodeID(i + 1)
		if err := sch.AddChild(attached[rng.Intn(len(attached))], v); err != nil {
			t.Fatal(err)
		}
		attached = append(attached, v)
	}
	return sch
}

// TestReduceBarrierModelsMatchReferences pins model.ReduceModel and
// model.BarrierModel to the oracle evaluators (oracle_test.go) Reduce and
// BarrierRT on random trees — the oracle contract the engine's reverse
// ready fold, which model.EvalTimes runs, is certified against for the
// collective objectives.
func TestReduceBarrierModelsMatchReferences(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		set, err := cluster.Generate(cluster.GenConfig{N: 13, K: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		sch := randCollectiveSchedule(t, rng, set)

		red, err := Reduce(sch)
		if err != nil {
			t.Fatal(err)
		}
		var tm model.Times
		reduce := sch.Clone()
		reduce.BindModel(model.ReduceModel{})
		if err := model.EvalTimes(reduce, &tm); err != nil {
			t.Fatal(err)
		}
		if tm.RT != red.Done {
			t.Fatalf("seed %d: ReduceModel RT = %d, Reduce.Done = %d", seed, tm.RT, red.Done)
		}
		for v := range red.Ready {
			if tm.Reception[v] != red.Ready[v] {
				t.Fatalf("seed %d node %d: ReduceModel ready = %d, reference %d", seed, v, tm.Reception[v], red.Ready[v])
			}
		}

		wantBarrier, err := BarrierRT(sch)
		if err != nil {
			t.Fatal(err)
		}
		barrier := sch.Clone()
		barrier.BindModel(model.BarrierModel{})
		if err := model.EvalTimes(barrier, &tm); err != nil {
			t.Fatal(err)
		}
		if tm.RT != wantBarrier {
			t.Fatalf("seed %d: BarrierModel RT = %d, BarrierRT = %d", seed, tm.RT, wantBarrier)
		}
	}
}
