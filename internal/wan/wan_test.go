package wan

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/heur"
	"repro/internal/model"
)

// greedy builds the WAN-aware greedy tree for topo: heur.ModelGreedy
// under the topology's link model, on its base set with the minimum
// latency standing in for the unused scalar L. The schedule comes back
// bound to the link model.
func greedy(t *testing.T, topo *Topology) *model.Schedule {
	t.Helper()
	sch, err := heur.ModelGreedy{Model: &model.LinkModel{Lat: topo.Lat}}.Schedule(topo.BaseSet(topo.MinLatency()))
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestUniformMatchesBaseModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		set, err := cluster.Generate(cluster.GenConfig{N: 1 + rng.Intn(25), K: 3, Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		sch, err := core.Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		topo := Uniform(set)
		if err := topo.Validate(); err != nil {
			t.Fatal(err)
		}
		got, err := topo.ComputeTimes(sch)
		if err != nil {
			t.Fatal(err)
		}
		want := model.ComputeTimes(sch)
		if got.RT != want.RT || got.DT != want.DT {
			t.Fatalf("trial %d: uniform topology RT/DT (%d,%d) != base (%d,%d)", trial, got.RT, got.DT, want.RT, want.DT)
		}
		for v := range want.Delivery {
			if got.Delivery[v] != want.Delivery[v] {
				t.Fatalf("trial %d: delivery[%d] %d != %d", trial, v, got.Delivery[v], want.Delivery[v])
			}
		}
	}
}

func TestGreedyUniformMatchesBaseGreedy(t *testing.T) {
	// On a uniform matrix the WAN-aware greedy must coincide (in RT) with
	// the paper's greedy.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		set, err := cluster.Generate(cluster.GenConfig{N: 1 + rng.Intn(20), K: 2, Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		topo := Uniform(set)
		wsch := greedy(t, topo)
		wt, err := topo.ComputeTimes(wsch)
		if err != nil {
			t.Fatal(err)
		}
		bsch, err := core.Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		if wt.RT != model.RT(bsch) {
			t.Fatalf("trial %d: WAN greedy RT %d != base greedy RT %d", trial, wt.RT, model.RT(bsch))
		}
	}
}

func TestHandComputedTwoIsland(t *testing.T) {
	// Source and one node in island A (LAN=1), one node in island B
	// (WAN=10); homogeneous overheads s=r=1.
	nodes := []model.Node{{Send: 1, Recv: 1}, {Send: 1, Recv: 1}, {Send: 1, Recv: 1}}
	lat := [][]int64{
		{0, 1, 10},
		{1, 0, 10},
		{10, 10, 0},
	}
	topo := &Topology{Nodes: nodes, Lat: lat}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	sch := greedy(t, topo)
	tm, err := topo.ComputeTimes(sch)
	if err != nil {
		t.Fatal(err)
	}
	// Best: source sends to 1 (d=1+1=2, r=3) and to 2 (d=2+10=12, r=13).
	if tm.RT != 13 {
		t.Errorf("RT = %d, want 13 (tree %s)", tm.RT, sch)
	}
}

func TestGenerateClusteredShape(t *testing.T) {
	topo, err := GenerateClustered(ClusteredConfig{Clusters: 3, NodesPerCluster: 5, LANLatency: 2, WANLatency: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(topo.Nodes) - 1; n != 14 {
		t.Errorf("N = %d, want 14", n)
	}
	// Latency values are exactly LAN or WAN off-diagonal.
	lan, wan := 0, 0
	for u := range topo.Lat {
		for v := range topo.Lat[u] {
			if u == v {
				continue
			}
			switch topo.Lat[u][v] {
			case 2:
				lan++
			case 40:
				wan++
			default:
				t.Fatalf("unexpected latency %d", topo.Lat[u][v])
			}
		}
	}
	if lan == 0 || wan == 0 {
		t.Error("expected both LAN and WAN links")
	}
	if topo.MinLatency() != 2 {
		t.Errorf("MinLatency = %d", topo.MinLatency())
	}
}

func TestGenerateClusteredErrors(t *testing.T) {
	if _, err := GenerateClustered(ClusteredConfig{Clusters: 0, NodesPerCluster: 3, LANLatency: 1, WANLatency: 2}); err == nil {
		t.Error("zero clusters accepted")
	}
	if _, err := GenerateClustered(ClusteredConfig{Clusters: 1, NodesPerCluster: 3, LANLatency: 5, WANLatency: 2}); err == nil {
		t.Error("WAN < LAN accepted")
	}
}

func TestWANAwareBeatsObliviousOnClusteredTopologies(t *testing.T) {
	// The point of reference [5]: a scheduler that assumes one global L
	// (the LAN value) builds trees that cross the WAN too often. Compare
	// total RT across seeds; WAN-aware greedy must win in aggregate and
	// never lose badly.
	var aware, oblivious int64
	for seed := int64(0); seed < 25; seed++ {
		topo, err := GenerateClustered(ClusteredConfig{
			Clusters: 3, NodesPerCluster: 8, LANLatency: 2, WANLatency: 80, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		wsch := greedy(t, topo)
		wt, err := topo.ComputeTimes(wsch)
		if err != nil {
			t.Fatal(err)
		}
		// Oblivious: run the paper's greedy believing L = LAN latency,
		// then pay the true matrix.
		osch, err := core.Schedule(topo.BaseSet(2))
		if err != nil {
			t.Fatal(err)
		}
		ot, err := topo.ComputeTimes(osch)
		if err != nil {
			t.Fatal(err)
		}
		aware += wt.RT
		oblivious += ot.RT
		if wt.RT > 3*ot.RT {
			t.Fatalf("seed %d: WAN-aware greedy much worse than oblivious (%d vs %d)", seed, wt.RT, ot.RT)
		}
	}
	if aware >= oblivious {
		t.Errorf("WAN-aware total %d not better than oblivious total %d", aware, oblivious)
	}
	t.Logf("aggregate RT: aware %d vs oblivious %d (%.2fx)", aware, oblivious, float64(oblivious)/float64(aware))
}

func TestValidateErrors(t *testing.T) {
	nodes := []model.Node{{Send: 1, Recv: 1}, {Send: 1, Recv: 1}}
	if err := (&Topology{Nodes: nodes, Lat: [][]int64{{0, 1}}}).Validate(); err == nil {
		t.Error("short matrix accepted")
	}
	if err := (&Topology{Nodes: nodes, Lat: [][]int64{{0, 0}, {1, 0}}}).Validate(); err == nil {
		t.Error("zero off-diagonal latency accepted")
	}
	bad := [][]int64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	if err := (&Topology{Nodes: nodes, Lat: bad}).Validate(); err == nil {
		t.Error("oversized matrix accepted")
	}
}
