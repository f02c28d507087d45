package hnow

import (
	"fmt"
	"testing"

	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/heur"
	"repro/internal/model"
	"repro/internal/nodemodel"
	"repro/internal/wan"
)

// The benchmarks below regenerate the paper's evaluation artifacts, one
// per experiment E1–E15 of package internal/experiments (README's CLI
// table lists the range). Run with
//
//	go test -bench=. -benchmem
//
// cmd/hnowbench prints the corresponding report tables.

// BenchmarkE1Figure1 times the full Figure 1 reproduction pipeline:
// greedy, reversal, DP and brute force on the 5-node instance.
func BenchmarkE1Figure1(b *testing.B) {
	set := figure1(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyWithReversal(set); err != nil {
			b.Fatal(err)
		}
		if _, err := OptimalRT(set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2GreedyScaling measures Lemma 1's O(n log n) construction at
// several sizes.
func BenchmarkE2GreedyScaling(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		set, err := Generate(GenConfig{N: n, K: 4, Seed: int64(n)})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Greedy(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3LayeredOptimality times the exhaustive layered-schedule
// enumeration used to verify Corollary 1.
func BenchmarkE3LayeredOptimality(b *testing.B) {
	set, err := Generate(GenConfig{N: 4, K: 2, MaxSend: 6, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		min := int64(1 << 62)
		err := exact.EnumerateSchedules(set, func(s *Schedule) bool {
			if dt := DeliveryCompletionTime(s); dt < min {
				min = dt
			}
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4ApproxRatio times one greedy-vs-optimal ratio measurement at
// the paper's cited ratio band.
func BenchmarkE4ApproxRatio(b *testing.B) {
	set, err := Generate(GenConfig{N: 8, K: 2, RatioMin: 1.05, RatioMax: 1.85, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := Greedy(set)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := OptimalRT(set)
		if err != nil {
			b.Fatal(err)
		}
		if CompletionTime(g) < opt {
			b.Fatal("greedy below optimal")
		}
	}
}

// BenchmarkE5DPScaling times the Lemma 4 DP across k and n.
func BenchmarkE5DPScaling(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		for _, n := range []int{16, 48} {
			set, err := Generate(GenConfig{N: n, K: k, Seed: int64(k*1000 + n)})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := OptimalRT(set); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE6LeafReversal times the leaf-reversal post-pass alone.
func BenchmarkE6LeafReversal(b *testing.B) {
	set, err := Generate(GenConfig{N: 4096, K: 3, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sch, err := Greedy(set)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := ReverseLeaves(sch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Baselines times every scheduler on a common instance.
func BenchmarkE7Baselines(b *testing.B) {
	set, err := Generate(GenConfig{N: 2048, K: 3, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range AllSchedulers(7) {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Simulator times the discrete-event execution of a greedy
// schedule.
func BenchmarkE8Simulator(b *testing.B) {
	set, err := Generate(GenConfig{N: 4096, K: 3, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	sch, err := GreedyWithReversal(set)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(sch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8SimulatorJitter adds the perturbation hook cost.
func BenchmarkE8SimulatorJitter(b *testing.B) {
	set, err := Generate(GenConfig{N: 4096, K: 3, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	sch, err := GreedyWithReversal(set)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SimulatePerturbed(sch, UniformJitter(int64(i), 0.2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9TableBuild times the full-table precomputation of Theorem 2's
// closing remark; BenchmarkE9TableLookup times the constant-time lookups
// it buys.
func BenchmarkE9TableBuild(b *testing.B) {
	spec := ClusterSpec{Network: DefaultNetwork(), SourceProfile: 2, Counts: []int{16, 8, 4}}
	set, err := spec.Instance(16 * 1024)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := BuildOptimalTable(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9TableLookup(b *testing.B) {
	spec := ClusterSpec{Network: DefaultNetwork(), SourceProfile: 2, Counts: []int{16, 8, 4}}
	set, err := spec.Instance(16 * 1024)
	if err != nil {
		b.Fatal(err)
	}
	table, err := BuildOptimalTable(set)
	if err != nil {
		b.Fatal(err)
	}
	q := []int{16, 8, 4}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := table.Lookup(2, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Sensitivity times one full sensitivity data point (generate,
// schedule with greedy and two baselines, evaluate).
func BenchmarkE10Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set, err := Generate(GenConfig{N: 256, K: 3, Latency: 20, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range AllSchedulers(int64(i)) {
			sch, err := s.Schedule(set)
			if err != nil {
				b.Fatal(err)
			}
			_ = CompletionTime(sch)
		}
	}
}

// BenchmarkE11Heuristics times each future-work heuristic on a common
// mid-size instance.
func BenchmarkE11Heuristics(b *testing.B) {
	set, err := Generate(GenConfig{N: 64, K: 3, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []Scheduler{
		GreedyScheduler(true),
		heur.SlowestFirst{},
		heur.LocalSearch{MaxRounds: 10},
		heur.Annealing{Seed: 1, Iters: 500},
		heur.BeamSearch{},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12NodeModel times the prior-art node-model greedy and its
// cross-model evaluation.
func BenchmarkE12NodeModel(b *testing.B) {
	set, err := Generate(GenConfig{N: 2048, K: 3, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst := nodemodel.FromReceiveSend(set)
		tree, err := inst.Greedy()
		if err != nil {
			b.Fatal(err)
		}
		sch, err := nodemodel.ToSchedule(tree, set)
		if err != nil {
			b.Fatal(err)
		}
		_ = CompletionTime(sch)
	}
}

// BenchmarkE13Pipeline times the multi-segment evaluator.
func BenchmarkE13Pipeline(b *testing.B) {
	set, err := Generate(GenConfig{N: 1024, K: 3, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	sch, err := GreedyWithReversal(set)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PipelineRT(sch, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14Postal times the postal-model tree construction and its
// receive-send evaluation.
func BenchmarkE14Postal(b *testing.B) {
	set, err := Generate(GenConfig{N: 2048, K: 3, Seed: 14})
	if err != nil {
		b.Fatal(err)
	}
	s := PostalScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sch, err := s.Schedule(set)
		if err != nil {
			b.Fatal(err)
		}
		_ = CompletionTime(sch)
	}
}

// BenchmarkE15WAN times the WAN-aware greedy on a clustered topology.
func BenchmarkE15WAN(b *testing.B) {
	topo, err := wan.GenerateClustered(wan.ClusteredConfig{
		Clusters: 4, NodesPerCluster: 64, LANLatency: 2, WANLatency: 60, Seed: 15,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := heur.ModelGreedy{Model: &model.LinkModel{Lat: topo.Lat}}
	set := topo.BaseSet(topo.MinLatency())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sch, err := g.Schedule(set)
		if err != nil {
			b.Fatal(err)
		}
		var tm model.Times
		if err := model.EvalTimes(sch, &tm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduce times the collective reduce analysis (Section 5
// extension).
func BenchmarkReduce(b *testing.B) {
	set, err := Generate(GenConfig{N: 4096, K: 3, Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	sch, err := GreedyWithReversal(set)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReduceRT(sch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExperimentReports smoke-tests the full experiment harness the
// hnowbench binary exposes; each report must render without error markers.
func TestExperimentReports(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow; skipped in -short mode")
	}
	reports := map[string]func() string{
		"E1":  experiments.E1Figure1,
		"E3":  func() string { return experiments.E3LayeredOptimality(5) },
		"E4":  func() string { return experiments.E4ApproxRatio(10) },
		"E5":  experiments.E5DPScaling,
		"E6":  func() string { return experiments.E6LeafReversal(20) },
		"E7":  func() string { return experiments.E7Baselines(10) },
		"E8":  func() string { return experiments.E8Simulator(10) },
		"E9":  experiments.E9Table,
		"E10": func() string { return experiments.E10Sensitivity(5) },
		"E11": func() string { return experiments.E11Heuristics(8) },
		"E12": func() string { return experiments.E12NodeModel(10) },
		"E13": experiments.E13Pipelining,
		"E14": func() string { return experiments.E14Postal(8) },
		"E15": func() string { return experiments.E15WAN(5) },
	}
	for name, f := range reports {
		out := f()
		if out == "" {
			t.Errorf("%s: empty report", name)
		}
		for _, bad := range []string{"error", "mismatches (must be 0)\n0"} {
			_ = bad
		}
		if containsError(out) {
			t.Errorf("%s: report contains an error marker:\n%s", name, out)
		}
	}
}

func containsError(s string) bool {
	for i := 0; i+6 <= len(s); i++ {
		if s[i:i+6] == "error:" {
			return true
		}
	}
	return false
}
