package heur

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
)

// recvTiedSet builds a set with strictly increasing sends and one shared
// receiving overhead: reception times tie constantly, so any drift in
// tie-breaking between the engine-backed loops and the mutate-and-undo
// references would surface here. Such sets are valid (the correlation
// rule forbids inversions and equal-send splits, not shared recvs).
func recvTiedSet(t testing.TB, rng *rand.Rand, n int) *model.MulticastSet {
	t.Helper()
	nodes := make([]model.Node, n+1)
	for i := range nodes {
		nodes[i] = model.Node{Send: int64(1 + rng.Intn(4)), Recv: 6}
	}
	set := &model.MulticastSet{Latency: int64(1 + rng.Intn(3)), Nodes: nodes}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	return set
}

func paritySet(t testing.TB, rng *rand.Rand, trial int) *model.MulticastSet {
	if trial%3 == 2 {
		return recvTiedSet(t, rng, 2+rng.Intn(24))
	}
	set, err := cluster.Generate(cluster.GenConfig{
		N: 2 + rng.Intn(24), K: 1 + rng.Intn(4), MaxSend: 16, Seed: rng.Int63(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestLocalSearchParityWithReference pins the engine-backed LocalSearch
// to the pre-engine mutate-and-undo loop: identical trees (not just
// identical completion times) on randomized networks including recv-tied
// ones.
func TestLocalSearchParityWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 60; trial++ {
		set := paritySet(t, rng, trial)
		ls := LocalSearch{}
		got, err := ls.Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		want, err := localSearchReference(ls, set)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: engine local search diverged from reference\nengine    %s (RT %d)\nreference %s (RT %d)",
				trial, got, model.RT(got), want, model.RT(want))
		}
	}
}

// TestLocalSearchParityAtServiceShape pins the parity at the shape the
// service's compare benchmark draws: cluster networks of 64 destinations
// and 3 workstation types, under the base model and the pipeline rows,
// the two cost models of that benchmark under which the search prunes.
// The base search improves on its greedy+leafrev start in draws 5 and 18
// only; the pipeline search improves in all four.
func TestLocalSearchParityAtServiceShape(t *testing.T) {
	for _, trial := range []int64{0, 1, 5, 18} {
		set, err := cluster.Generate(cluster.GenConfig{N: 64, K: 3, SourceType: -1, Seed: trial*7919 + 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, cm := range []model.CostModel{nil, &model.PipelineModel{Segments: 4}} {
			ls := LocalSearch{Model: cm}
			got, err := ls.Schedule(set)
			if err != nil {
				t.Fatal(err)
			}
			want, err := localSearchReference(ls, set)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d (model %v): engine local search diverged from reference\nengine    %s\nreference %s",
					trial, cm, got, want)
			}
		}
	}
}

// TestAnnealingParityWithReference pins the engine-backed Annealing to
// the pre-engine loop: the proposal and acceptance sequences must consume
// the RNG identically, so the final trees match exactly across seeds.
func TestAnnealingParityWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(515151))
	for trial := 0; trial < 30; trial++ {
		set := paritySet(t, rng, trial)
		an := Annealing{Seed: int64(trial)*13 + 1, Iters: 600}
		got, err := an.Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		want, err := annealingReference(an, set)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d (seed %d): engine annealing diverged from reference\nengine    %s (RT %d)\nreference %s (RT %d)",
				trial, an.Seed, got, model.RT(got), want, model.RT(want))
		}
	}
}

// TestLocalSearchParityNonDefaultBase covers the parity across a base
// scheduler whose trees differ structurally from greedy's.
func TestLocalSearchParityNonDefaultBase(t *testing.T) {
	rng := rand.New(rand.NewSource(616161))
	for trial := 0; trial < 20; trial++ {
		set := paritySet(t, rng, trial)
		ls := LocalSearch{Base: SlowestFirst{}, MaxRounds: 8}
		got, err := ls.Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		want, err := localSearchReference(ls, set)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: diverged with slowest-first base\nengine    %s\nreference %s", trial, got, want)
		}
	}
}

// parityModels are the cost-model families the model-aware parity tests
// cover. Each draws its parameter from the trial index and alternates the
// value and pointer forms, since callers (the service among them) bind
// either.
var parityModels = []struct {
	name string
	at   func(rng *rand.Rand, trial, n int) model.CostModel
}{
	{"pipeline", func(_ *rand.Rand, trial, _ int) model.CostModel {
		m := model.PipelineModel{Segments: 1 + trial%6}
		if trial%2 == 0 {
			return &m
		}
		return m
	}},
	{"reduce", func(_ *rand.Rand, trial, _ int) model.CostModel {
		if trial%2 == 0 {
			return &model.ReduceModel{}
		}
		return model.ReduceModel{}
	}},
	{"barrier", func(_ *rand.Rand, trial, _ int) model.CostModel {
		if trial%2 == 0 {
			return &model.BarrierModel{}
		}
		return model.BarrierModel{}
	}},
	{"node", func(_ *rand.Rand, trial, _ int) model.CostModel {
		m := model.NodeModel{Lambda: int64(trial % 7)}
		if trial%2 == 0 {
			return &m
		}
		return m
	}},
	{"link", func(rng *rand.Rand, _, n int) model.CostModel {
		// Few distinct latencies, so completion times tie often.
		lat := make([][]int64, n)
		for u := range lat {
			lat[u] = make([]int64, n)
			for v := range lat[u] {
				if u != v {
					lat[u][v] = int64(1 + rng.Intn(6))
				}
			}
		}
		return &model.LinkModel{Lat: lat}
	}},
}

// TestLocalSearchParityPerModel pins LocalSearch{Model: cm} to the
// mutate-evaluate-undo reference under every non-base cost model:
// identical trees on 60 random networks per model family.
func TestLocalSearchParityPerModel(t *testing.T) {
	for _, pm := range parityModels {
		t.Run(pm.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(737373))
			for trial := 0; trial < 60; trial++ {
				set := paritySet(t, rng, trial)
				cm := pm.at(rng, trial, len(set.Nodes))
				ls := LocalSearch{Model: cm}
				got, err := ls.Schedule(set)
				if err != nil {
					t.Fatal(err)
				}
				want, err := localSearchReference(ls, set)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d (%s): engine local search diverged from reference\nengine    %s\nreference %s",
						trial, cm.Name(), got, want)
				}
			}
		})
	}
}

// TestAnnealingParityPerModel is the annealing counterpart: under every
// non-base cost model the engine-backed search must consume the RNG and
// accept moves exactly as the reference does.
func TestAnnealingParityPerModel(t *testing.T) {
	for _, pm := range parityModels {
		t.Run(pm.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(838383))
			for trial := 0; trial < 60; trial++ {
				set := paritySet(t, rng, trial)
				cm := pm.at(rng, trial, len(set.Nodes))
				an := Annealing{Seed: int64(trial)*7 + 3, Iters: 600, Model: cm}
				got, err := an.Schedule(set)
				if err != nil {
					t.Fatal(err)
				}
				want, err := annealingReference(an, set)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d (%s, seed %d): engine annealing diverged from reference\nengine    %s\nreference %s",
						trial, cm.Name(), an.Seed, got, want)
				}
			}
		})
	}
}

// BenchmarkNeighborhoodEvalMoves and BenchmarkNeighborhoodRecompute put
// the two move-evaluation strategies side by side on the same full swap
// neighborhood: batched engine scoring vs mutate + ComputeTimesInto +
// undo per candidate. hnowbench -json runs the same pair into
// BENCH_engine.json.
func swapNeighborhood(set *model.MulticastSet) []model.Move {
	n := len(set.Nodes)
	var moves []model.Move
	for a := 1; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if set.Nodes[a] == set.Nodes[b] {
				continue
			}
			moves = append(moves, model.SwapMove(a, b))
		}
	}
	return moves
}

func BenchmarkNeighborhoodEvalMoves(b *testing.B) {
	set := genSet(b, 64, 11)
	sch, err := (SlowestFirst{}).Schedule(set)
	if err != nil {
		b.Fatal(err)
	}
	var eng model.Engine
	eng.Attach(sch)
	moves := swapNeighborhood(set)
	out := make([]int64, len(moves))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.EvalMoves(moves, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(moves)), "ns/move")
}

func BenchmarkNeighborhoodRecompute(b *testing.B) {
	set := genSet(b, 64, 11)
	sch, err := (SlowestFirst{}).Schedule(set)
	if err != nil {
		b.Fatal(err)
	}
	var tm model.Times
	model.ComputeTimesInto(sch, &tm)
	moves := swapNeighborhood(set)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mv := range moves {
			if err := sch.SwapNodes(mv.A, mv.B); err != nil {
				b.Fatal(err)
			}
			model.ComputeTimesInto(sch, &tm)
			if err := sch.SwapNodes(mv.A, mv.B); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(moves)), "ns/move")
}
