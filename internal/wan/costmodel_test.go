package wan

import (
	"math/rand"
	"testing"

	"repro/internal/heur"
	"repro/internal/model"
)

func clusteredTopo(t *testing.T, seed int64) *Topology {
	t.Helper()
	topo, err := GenerateClustered(ClusteredConfig{
		Clusters: 3, NodesPerCluster: 5,
		LANLatency: 2, WANLatency: 60,
		K: 3, MaxSend: 12, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// shuffledSchedule builds a random-order greedy-shaped tree so parity
// tests see trees other than the ones the WAN greedy likes.
func shuffledSchedule(t *testing.T, rng *rand.Rand, set *model.MulticastSet) *model.Schedule {
	t.Helper()
	sch := model.NewSchedule(set)
	attached := []model.NodeID{0}
	order := rng.Perm(len(set.Nodes) - 1)
	for _, i := range order {
		v := model.NodeID(i + 1)
		p := attached[rng.Intn(len(attached))]
		if err := sch.AddChild(p, v); err != nil {
			t.Fatal(err)
		}
		attached = append(attached, v)
	}
	return sch
}

// TestLinkModelMatchesTopologyTimes pins model.LinkModel bit-identically
// to the oracle evaluator Topology.ComputeTimes (oracle_test.go) on random
// trees over clustered topologies — the oracle contract the engine's WAN
// fast path is certified against.
func TestLinkModelMatchesTopologyTimes(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		topo := clusteredTopo(t, seed)
		set := topo.BaseSet(topo.MinLatency())
		rng := rand.New(rand.NewSource(seed))
		sch := shuffledSchedule(t, rng, set)
		want, err := topo.ComputeTimes(sch)
		if err != nil {
			t.Fatal(err)
		}
		bound := sch.Clone()
		bound.BindModel(&model.LinkModel{Lat: topo.Lat})
		var got model.Times
		if err := model.EvalTimes(bound, &got); err != nil {
			t.Fatal(err)
		}
		if got.RT != want.RT || got.DT != want.DT {
			t.Fatalf("seed %d: LinkModel DT/RT = %d/%d, Topology.ComputeTimes %d/%d",
				seed, got.DT, got.RT, want.DT, want.RT)
		}
		for v := range want.Delivery {
			if got.Delivery[v] != want.Delivery[v] || got.Reception[v] != want.Reception[v] {
				t.Fatalf("seed %d node %d: LinkModel d/r = %d/%d, reference %d/%d",
					seed, v, got.Delivery[v], got.Reception[v], want.Delivery[v], want.Reception[v])
			}
		}
	}
}

// FuzzLinkModelParity is the fuzzing form: random matrices, random trees,
// EvalTimes under LinkModel vs Topology.ComputeTimes, every per-node time.
func FuzzLinkModelParity(f *testing.F) {
	f.Add(int64(1), int64(3))
	f.Add(int64(77), int64(9))
	f.Add(int64(12345), int64(31))
	f.Fuzz(func(t *testing.T, seed, shape int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(uint64(shape)%14)
		// Correlated types, as Topology.Validate requires: higher send
		// implies higher recv.
		k := 2 + rng.Intn(4)
		types := make([]model.Node, k)
		var send, recv int64
		for i := range types {
			send += 1 + rng.Int63n(5)
			recv += send + rng.Int63n(6)
			types[i] = model.Node{Send: send, Recv: recv}
		}
		nodes := make([]model.Node, n+1)
		for i := range nodes {
			nodes[i] = types[rng.Intn(k)]
		}
		lat := make([][]int64, n+1)
		for u := range lat {
			lat[u] = make([]int64, n+1)
			for v := range lat[u] {
				if u != v {
					lat[u][v] = 1 + rng.Int63n(50)
				}
			}
		}
		topo := &Topology{Nodes: nodes, Lat: lat}
		if err := topo.Validate(); err != nil {
			t.Fatal(err)
		}
		set := topo.BaseSet(topo.MinLatency())
		sch := shuffledSchedule(t, rng, set)
		want, err := topo.ComputeTimes(sch)
		if err != nil {
			t.Fatal(err)
		}
		bound := sch.Clone()
		bound.BindModel(&model.LinkModel{Lat: lat})
		var got model.Times
		if err := model.EvalTimes(bound, &got); err != nil {
			t.Fatal(err)
		}
		if got.RT != want.RT || got.DT != want.DT {
			t.Fatalf("LinkModel DT/RT = %d/%d, reference %d/%d", got.DT, got.RT, want.DT, want.RT)
		}
		for v := range want.Delivery {
			if got.Delivery[v] != want.Delivery[v] || got.Reception[v] != want.Reception[v] {
				t.Fatalf("node %d: LinkModel d/r = %d/%d, reference %d/%d",
					v, got.Delivery[v], got.Reception[v], want.Delivery[v], want.Reception[v])
			}
		}
	})
}

// TestGenerateClusteredRespectsMaxSend is the satellite-1 property test:
// the cumulative type draw used to overshoot the documented MaxSend bound
// by up to K; every drawn type must now respect it, across seeds and
// (K, MaxSend) shapes including the tight K == MaxSend corner.
func TestGenerateClusteredRespectsMaxSend(t *testing.T) {
	shapes := []struct {
		k       int
		maxSend int64
	}{{2, 4}, {3, 3}, {4, 5}, {5, 8}, {8, 8}, {6, 64}}
	for _, sh := range shapes {
		for seed := int64(0); seed < 200; seed++ {
			topo, err := GenerateClustered(ClusteredConfig{
				Clusters: 2, NodesPerCluster: 4,
				LANLatency: 1, WANLatency: 10,
				K: sh.k, MaxSend: sh.maxSend, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, nd := range topo.Nodes {
				if nd.Send > sh.maxSend {
					t.Fatalf("k=%d maxSend=%d seed=%d: node %d has send %d > MaxSend",
						sh.k, sh.maxSend, seed, i, nd.Send)
				}
				if nd.Send < 1 || nd.Recv < nd.Send {
					t.Fatalf("k=%d maxSend=%d seed=%d: node %d has degenerate overheads %+v",
						sh.k, sh.maxSend, seed, i, nd)
				}
			}
		}
	}
}

// TestGreedyScheduleRejectsBaseScoring is a regression test. The WAN
// greedy's schedule embeds a set carrying the uniform MinLatency
// stand-in, so scoring it with the base helpers (model.RT /
// model.ComputeTimes) once silently reported WAN times with every
// inter-island latency collapsed to the LAN floor — a number that is
// simply wrong, and wrong in the flattering direction. The schedule is
// bound to its link model: the silent path panics, the model-dispatching
// path reports the true WAN times, and the old wrong number is
// demonstrably different.
func TestGreedyScheduleRejectsBaseScoring(t *testing.T) {
	topo := clusteredTopo(t, 4)
	sch := greedy(t, topo)
	if _, ok := sch.Model().(*model.LinkModel); !ok {
		t.Fatalf("Greedy schedule bound to %T, want *model.LinkModel", sch.Model())
	}

	want, err := topo.ComputeTimes(sch)
	if err != nil {
		t.Fatal(err)
	}
	var got model.Times
	if err := model.EvalTimes(sch, &got); err != nil {
		t.Fatal(err)
	}
	if got.RT != want.RT {
		t.Fatalf("EvalTimes RT = %d, Topology.ComputeTimes RT = %d", got.RT, want.RT)
	}

	// The old silent-wrong number: base scoring of the same tree over the
	// embedded uniform-latency set. On a clustered topology with WAN >>
	// LAN it must differ from the true WAN completion (it pretends every
	// cross-island hop costs the LAN floor).
	var wrong model.Times
	base := sch.Clone()
	base.BindModel(model.BaseModel{})
	if err := model.EvalTimes(base, &wrong); err != nil {
		t.Fatal(err)
	}
	if wrong.RT == want.RT {
		t.Fatalf("base scoring accidentally matches the WAN RT %d; the regression guard needs a sharper topology", want.RT)
	}

	// And the silent path itself is closed: base helpers refuse the
	// wan-bound schedule instead of reporting `wrong`.
	defer func() {
		if recover() == nil {
			t.Fatal("model.RT on the wan-bound greedy schedule did not panic")
		}
	}()
	model.RT(sch)
}

// TestSearchesBeatScenarioGreedyOnWAN is the acceptance test for the WAN
// scenario: heur's LocalSearch, Annealing and BeamSearch, handed a
// LinkModel, must each produce a structurally valid schedule on a
// clustered WAN instance that is no worse than the WAN greedy, with every
// completion time scored by the oracle evaluator Topology.ComputeTimes
// (not by the engine being tested).
func TestSearchesBeatScenarioGreedyOnWAN(t *testing.T) {
	topo, err := GenerateClustered(ClusteredConfig{
		Clusters: 4, NodesPerCluster: 8,
		LANLatency: 2, WANLatency: 50,
		K: 3, MaxSend: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	greedySch := greedy(t, topo)
	greedyTm, err := topo.ComputeTimes(greedySch)
	if err != nil {
		t.Fatal(err)
	}

	cm := &model.LinkModel{Lat: topo.Lat}
	set := topo.BaseSet(topo.MinLatency())
	for _, s := range []model.Scheduler{
		heur.LocalSearch{Model: cm},
		heur.Annealing{Model: cm},
		heur.BeamSearch{Model: cm},
	} {
		sch, err := s.Schedule(set)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := sch.Validate(); err != nil {
			t.Fatalf("%s: invalid schedule: %v", s.Name(), err)
		}
		ref, err := topo.ComputeTimes(sch)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if ref.RT > greedyTm.RT {
			t.Fatalf("%s: WAN RT %d worse than scenario greedy %d", s.Name(), ref.RT, greedyTm.RT)
		}
		// The engine's own score must agree with the reference evaluator.
		var tm model.Times
		if err := model.EvalTimes(sch, &tm); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if tm.RT != ref.RT {
			t.Fatalf("%s: engine RT %d != wan reference RT %d", s.Name(), tm.RT, ref.RT)
		}
	}
}
