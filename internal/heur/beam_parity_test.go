package heur

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
)

// beamParityModel draws one of the cost models BeamSearch accepts: nil
// (base), link, pipeline(4), reduce, barrier and node.
func beamParityModel(rng *rand.Rand, n int) model.CostModel {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		// Few distinct latencies, so sender keys tie often.
		lat := make([][]int64, n)
		for u := range lat {
			lat[u] = make([]int64, n)
			for v := range lat[u] {
				if u != v {
					lat[u][v] = int64(1 + rng.Intn(4))
				}
			}
		}
		return &model.LinkModel{Lat: lat}
	case 2:
		return model.PipelineModel{Segments: 4}
	case 3:
		return model.ReduceModel{}
	case 4:
		return model.BarrierModel{}
	default:
		return model.NodeModel{Lambda: int64(rng.Intn(4))}
	}
}

// TestBeamSearchParityWithReference pins the flat-slab BeamSearch to the
// retained clone-per-child construction: identical children lists on
// random clustered networks (1..80 nodes, 1..4 types) across widths,
// branch factors (zero selects the defaults) and cost models. The width
// cut has real ties on these networks, so any drift in option order,
// child generation order or the sort permutation shows up as a
// different tree.
func TestBeamSearchParityWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(171717))
	trials := 1200
	if testing.Short() {
		trials = 200
	}
	for trial := 0; trial < trials; trial++ {
		set, err := cluster.Generate(cluster.GenConfig{
			N: rng.Intn(80), K: 1 + rng.Intn(4), MaxSend: 16, Seed: rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		b := BeamSearch{
			Width:  rng.Intn(10),
			Branch: rng.Intn(5),
			Model:  beamParityModel(rng, len(set.Nodes)),
		}
		got, err := b.Schedule(set)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := beamReference(b, set)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		for v := range set.Nodes {
			if !slices.Equal(got.Children(v), want.Children(v)) {
				t.Fatalf("trial %d (n=%d width=%d branch=%d model=%v): children of %d = %v, reference %v",
					trial, len(set.Nodes), b.Width, b.Branch, b.Model, v, got.Children(v), want.Children(v))
			}
		}
	}
}

// TestBeamSearchAllocCeiling guards against a return to per-child state
// clones: the default beam at n=64 stays within 2,000 allocations per
// call (the clone-per-child construction made about 13k).
func TestBeamSearchAllocCeiling(t *testing.T) {
	set, err := cluster.Generate(cluster.GenConfig{N: 63, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := (BeamSearch{}).Schedule(set); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Errorf("BeamSearch{} at n=64 allocates %.0f per call, ceiling 2000", allocs)
	}
	t.Logf("BeamSearch{} at n=64: %.0f allocs per call", allocs)
}
