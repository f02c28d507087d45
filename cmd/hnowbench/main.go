// Command hnowbench regenerates the paper's evaluation artifacts: the
// Figure 1 reproduction and the empirical validation of every lemma and
// theorem (experiments E1–E15, defined in package internal/experiments
// and listed in README's CLI table).
//
// Usage:
//
//	hnowbench                  # run everything
//	hnowbench -experiment E4   # one experiment
//	hnowbench -trials 200      # widen the sampled experiments
//	hnowbench -json            # run the perf suites, write BENCH_dp.json
//	                           # and BENCH_engine.json
//
// The -json mode runs the hot-path performance suites and emits
// machine-readable results so the perf trajectory is tracked in-repo
// across PRs: BENCH_dp.json covers the exact DP (table fills, sequential
// and parallel) and the heuristic loops end-to-end; BENCH_engine.json
// puts two move-evaluation strategies head to head — batched
// Engine.EvalMoves over a whole swap neighborhood vs mutate +
// ComputeTimesInto + undo per candidate — and records the ns/move
// speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/heur"
	"repro/internal/model"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment to run: E1..E15 or 'all'")
	trials := flag.Int("trials", 0, "trial count for sampled experiments (0 = default)")
	jsonMode := flag.Bool("json", false, "run the perf suites and emit JSON instead of experiments")
	out := flag.String("out", "BENCH_dp.json", "output path of the DP suite for -json (\"-\" for stdout)")
	engineOut := flag.String("engine-out", "BENCH_engine.json", "output path of the engine suite for -json (\"-\" for stdout, \"\" to skip)")
	cpu := flag.String("cpu", "", "comma-separated worker/GOMAXPROCS values for the parallel rows (default \"1,4,NumCPU\", deduplicated)")
	long := flag.Bool("long", false, "include the slow k=5 fill row in the -json DP suite")
	flag.Parse()

	if *jsonMode {
		cpus, err := parseCPUList(*cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hnowbench: %v\n", err)
			os.Exit(2)
		}
		if err := runPerfSuite(*out, cpus, *long); err != nil {
			fmt.Fprintf(os.Stderr, "hnowbench: %v\n", err)
			os.Exit(1)
		}
		if *engineOut != "" {
			if err := runEngineSuite(*engineOut, cpus); err != nil {
				fmt.Fprintf(os.Stderr, "hnowbench: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	runners := map[string]func() string{
		"E1":  experiments.E1Figure1,
		"E2":  experiments.E2GreedyScaling,
		"E3":  func() string { return experiments.E3LayeredOptimality(*trials) },
		"E4":  func() string { return experiments.E4ApproxRatio(*trials) },
		"E4L": experiments.E4LargeN,
		"E5":  experiments.E5DPScaling,
		"E6":  func() string { return experiments.E6LeafReversal(*trials) },
		"E7":  func() string { return experiments.E7Baselines(*trials) },
		"E8":  func() string { return experiments.E8Simulator(*trials) },
		"E9":  experiments.E9Table,
		"E10": func() string { return experiments.E10Sensitivity(*trials) },
		"E11": func() string { return experiments.E11Heuristics(*trials) },
		"E12": func() string { return experiments.E12NodeModel(*trials) },
		"E13": experiments.E13Pipelining,
		"E14": func() string { return experiments.E14Postal(*trials) },
		"E15": func() string { return experiments.E15WAN(*trials) },
	}
	key := strings.ToUpper(*experiment)
	if key == "ALL" {
		fmt.Println(experiments.All())
		return
	}
	f, ok := runners[key]
	if !ok {
		fmt.Fprintf(os.Stderr, "hnowbench: unknown experiment %q (want E1..E15 or all)\n", *experiment)
		os.Exit(2)
	}
	fmt.Println(f())
}

// parseCPUList parses the -cpu flag: a comma-separated list of positive
// worker counts, defaulting to {1, 4, NumCPU} so the parallel rows show
// the scaling story on any box. The list is deduplicated and sorted.
func parseCPUList(s string) ([]int, error) {
	var vals []int
	if s == "" {
		vals = []int{1, 4, runtime.NumCPU()}
	} else {
		for _, f := range strings.Split(s, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				return nil, fmt.Errorf("invalid -cpu entry %q (want positive integers)", f)
			}
			vals = append(vals, v)
		}
	}
	sort.Ints(vals)
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			out = append(out, v)
		}
	}
	return out, nil
}

// withProcs runs fn under the given GOMAXPROCS, restoring the previous
// value: the parallel rows measure real contention at each width, not
// whatever the harness happened to inherit.
func withProcs(procs int, fn func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// benchResult is one perf-suite measurement.
type benchResult struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	// GoMaxProcs is set on rows measured under an explicit GOMAXPROCS
	// (the -cpu matrix); 0 means the process default.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
}

// benchReport is the BENCH_dp.json document.
type benchReport struct {
	Tool       string        `json:"tool"`
	GoOS       string        `json:"goos"`
	GoArch     string        `json:"goarch"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Results    []benchResult `json:"results"`
}

// k3n60 is the acceptance-criteria network: 3 types, 60 destinations.
func k3n60() *model.MulticastSet {
	a := model.Node{Send: 1, Recv: 1}
	b := model.Node{Send: 2, Recv: 3}
	c := model.Node{Send: 3, Recv: 5}
	nodes := []model.Node{b}
	for i := 0; i < 20; i++ {
		nodes = append(nodes, a, b, c)
	}
	return &model.MulticastSet{Latency: 1, Nodes: nodes}
}

// k3n48 is shaped like the tables workload's networks: k=3 with 48
// destinations, overheads and latency as the cluster generator draws
// them. It is the generator's seed 25 draw, whose sequential fill cost is
// the median of the first 31 draws balanced as the workload requires.
func k3n48() *model.MulticastSet {
	a := model.Node{Send: 6, Recv: 11}
	b := model.Node{Send: 15, Recv: 26}
	c := model.Node{Send: 50, Recv: 67}
	nodes := []model.Node{c}
	for i := 0; i < 19; i++ {
		if i < 13 {
			nodes = append(nodes, a)
		}
		if i < 16 {
			nodes = append(nodes, b)
		}
		nodes = append(nodes, c)
	}
	return &model.MulticastSet{Latency: 10, Nodes: nodes}
}

func k2n40() *model.MulticastSet {
	fast := model.Node{Send: 1, Recv: 1}
	slow := model.Node{Send: 2, Recv: 3}
	nodes := []model.Node{slow}
	for i := 0; i < 30; i++ {
		nodes = append(nodes, fast)
	}
	for i := 0; i < 10; i++ {
		nodes = append(nodes, slow)
	}
	return &model.MulticastSet{Latency: 1, Nodes: nodes}
}

// k4n29 widens the fill suite to four types: 29 destinations, ~18k DP
// states, enough planes and split axes to exercise the nested cascade.
func k4n29() *model.MulticastSet {
	a := model.Node{Send: 1, Recv: 1}
	b := model.Node{Send: 2, Recv: 3}
	c := model.Node{Send: 3, Recv: 5}
	d := model.Node{Send: 4, Recv: 7}
	nodes := []model.Node{b}
	for i := 0; i < 7; i++ {
		nodes = append(nodes, a, b, c, d)
	}
	return &model.MulticastSet{Latency: 1, Nodes: nodes}
}

// k5n26 is the -long row: five types and the deepest odometer the suite
// drives, so cascade wins on high-arity networks stay measured.
func k5n26() *model.MulticastSet {
	a := model.Node{Send: 1, Recv: 1}
	b := model.Node{Send: 2, Recv: 3}
	c := model.Node{Send: 3, Recv: 5}
	d := model.Node{Send: 4, Recv: 7}
	e := model.Node{Send: 5, Recv: 9}
	nodes := []model.Node{b}
	for i := 0; i < 5; i++ {
		nodes = append(nodes, a, b, c, d, e)
	}
	return &model.MulticastSet{Latency: 1, Nodes: nodes}
}

func heurSet() (*model.MulticastSet, error) { return heurSetN(64) }

// heurSetN builds a deterministic n-destination, 3-type instance
// mirroring the heur package benchmarks.
func heurSetN(n int) (*model.MulticastSet, error) {
	types := []model.Node{{Send: 2, Recv: 2}, {Send: 3, Recv: 5}, {Send: 5, Recv: 8}}
	nodes := []model.Node{types[0]}
	for i := 0; i < n; i++ {
		nodes = append(nodes, types[i%3])
	}
	set := &model.MulticastSet{Latency: 2, Nodes: nodes}
	return set, set.Validate()
}

func runPerfSuite(out string, cpus []int, long bool) error {
	hs, err := heurSet()
	if err != nil {
		return err
	}
	type perfCase struct {
		name  string
		procs int // run under this GOMAXPROCS when > 0
		fn    func(b *testing.B)
	}
	cases := []perfCase{
		{"dp_solve_k2_n40", 0, func(b *testing.B) {
			set := k2n40()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exact.OptimalRT(set); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	// fill measures one full-table build of set: sequential at workers 0,
	// else the parallel fill at that width under a matching GOMAXPROCS,
	// so the row measures real cores, not oversubscription.
	fill := func(name string, set func() *model.MulticastSet, workers int) perfCase {
		return perfCase{name, workers, func(b *testing.B) {
			s := set()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if workers == 0 {
					_, err = exact.BuildTable(s)
				} else {
					_, err = exact.BuildTableParallel(s, workers)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}}
	}
	// The k=3 fills sequentially and at each -cpu width: n=60, and the
	// n=48 network shaped like the benchmark's tables workload.
	cases = append(cases, fill("dp_fillall_seq_k3_n60", k3n60, 0))
	for _, w := range cpus {
		cases = append(cases, fill(fmt.Sprintf("dp_fillall_par_k3_n60_w%d", w), k3n60, w))
	}
	cases = append(cases, fill("dp_fillall_seq_k3_n48", k3n48, 0))
	for _, w := range cpus {
		cases = append(cases, fill(fmt.Sprintf("dp_fillall_par_k3_n48_w%d", w), k3n48, w))
	}
	// Higher-arity fills: the k=4 row always, the k=5 row behind -long.
	// Both run sequentially and at the widest -cpu width so the deep
	// odometer's cascade and the pool parallelism are measured together.
	cases = append(cases, fill("dp_fillall_seq_k4_n29", k4n29, 0))
	if wMax := cpus[len(cpus)-1]; wMax > 1 {
		cases = append(cases, fill(fmt.Sprintf("dp_fillall_par_k4_n29_w%d", wMax), k4n29, wMax))
	}
	if long {
		cases = append(cases, fill("dp_fillall_seq_k5_n26", k5n26, 0))
	}
	cases = append(cases, []perfCase{
		// The seed's move evaluation: a full allocating ComputeTimes walk
		// per candidate (BENCH_engine.json has the engine's batched form).
		{"move_eval_full_n64", 0, func(b *testing.B) {
			sch, err := heur.SlowestFirst{}.Schedule(hs)
			if err != nil {
				b.Fatal(err)
			}
			n := len(hs.Nodes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := model.NodeID(1 + i%(n-1))
				y := model.NodeID(1 + (i+7)%(n-1))
				if x == y {
					continue
				}
				if err := sch.SwapNodes(x, y); err != nil {
					b.Fatal(err)
				}
				_ = model.RT(sch)
				if err := sch.SwapNodes(x, y); err != nil {
					b.Fatal(err)
				}
				_ = model.RT(sch)
			}
		}},
		{"local_search_n64", 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (heur.LocalSearch{MaxRounds: 10}).Schedule(hs); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"annealing_n64", 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (heur.Annealing{Seed: 5, Iters: 2000}).Schedule(hs); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"beam_search_n64", 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (heur.BeamSearch{}).Schedule(hs); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}...)
	report := benchReport{
		Tool:       "hnowbench -json",
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, c := range cases {
		var r testing.BenchmarkResult
		if c.procs > 0 {
			withProcs(c.procs, func() { r = testing.Benchmark(c.fn) })
		} else {
			r = testing.Benchmark(c.fn)
		}
		br := benchResult{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			GoMaxProcs:  c.procs,
		}
		report.Results = append(report.Results, br)
		fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %10d B/op %8d allocs/op\n",
			c.name, br.NsPerOp, br.BytesPerOp, br.AllocsPerOp)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	return nil
}

// engineBenchResult is one engine-suite measurement. NsPerMove divides
// the op time by the neighborhood size for the head-to-head cases.
type engineBenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	NsPerMove   float64 `json:"ns_per_move,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Workers and SchedulesPerSec are set on the sweep-scoring rows: the
	// worker count (== GOMAXPROCS) the row ran under and the perturbed
	// schedule scorings completed per second.
	Workers         int     `json:"workers,omitempty"`
	SchedulesPerSec float64 `json:"schedules_per_sec,omitempty"`
}

// engineReport is the BENCH_engine.json document. The speedup fields are
// the acceptance metric of the structure-of-arrays engine: batched
// EvalMoves ns/move vs the per-move mutate + ComputeTimesInto + undo path
// on the same swap neighborhood.
type engineReport struct {
	Tool                 string              `json:"tool"`
	GoOS                 string              `json:"goos"`
	GoArch               string              `json:"goarch"`
	GoMaxProcs           int                 `json:"gomaxprocs"`
	Results              []engineBenchResult `json:"results"`
	SpeedupEvalMovesN64  float64             `json:"speedup_evalmoves_vs_fullrecompute_n64"`
	SpeedupEvalMovesN256 float64             `json:"speedup_evalmoves_vs_fullrecompute_n256"`
	// SpeedupBatchedSweepN64 is batched schedules/sec over per-schedule
	// schedules/sec at the NumCPU worker row (largest -cpu width when
	// NumCPU is not in the matrix).
	SpeedupBatchedSweepN64 float64 `json:"speedup_batched_sweep_n64"`
}

// swapNeighborhood generates the full swap neighborhood the heuristics
// scan, with the same same-type skip.
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

func runEngineSuite(out string, cpus []int) error {
	type benchCase struct {
		name  string
		moves int // neighborhood size for ns/move cases, 0 otherwise
		procs int // run under this GOMAXPROCS when > 0
		draws int // schedule scorings per op for the sweep rows, 0 otherwise
		fn    func(b *testing.B)
	}
	var cases []benchCase
	for _, n := range []int{64, 256} {
		set, err := heurSetN(n)
		if err != nil {
			return err
		}
		sch, err := heur.SlowestFirst{}.Schedule(set)
		if err != nil {
			return err
		}
		moves := swapNeighborhood(set)
		cases = append(cases,
			benchCase{name: fmt.Sprintf("engine_evalmoves_swapnbhd_n%d", n), moves: len(moves), fn: func(b *testing.B) {
				var eng model.Engine
				eng.Attach(sch)
				outRT := make([]int64, len(moves))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.EvalMoves(moves, outRT)
				}
			}},
			benchCase{name: fmt.Sprintf("fullrecompute_swapnbhd_n%d", n), moves: len(moves), fn: func(b *testing.B) {
				var tm model.Times
				model.ComputeTimesInto(sch, &tm)
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
			}},
		)
	}
	// Per-model rows: the same swap neighborhood at n=32 scored under
	// each non-base model the engine runs, bound in the pointer form the
	// service uses.
	mset, err := heurSetN(32)
	if err != nil {
		return err
	}
	mmoves := swapNeighborhood(mset)
	for _, pm := range []struct {
		name string
		cm   model.CostModel
	}{
		{"pipeline4", &model.PipelineModel{Segments: 4}},
		{"reduce", &model.ReduceModel{}},
		{"barrier", &model.BarrierModel{}},
		{"node", &model.NodeModel{Lambda: 2}},
	} {
		msch, err := heur.SlowestFirst{}.Schedule(mset)
		if err != nil {
			return err
		}
		msch.BindModel(pm.cm)
		cases = append(cases, benchCase{name: "engine_evalmoves_swapnbhd_n32_" + pm.name, moves: len(mmoves), fn: func(b *testing.B) {
			var eng model.Engine
			eng.Attach(msch)
			outRT := make([]int64, len(mmoves))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.EvalMoves(mmoves, outRT)
			}
		}})
	}
	for _, n := range []int{64, 256} {
		ls, err := heurSetN(n)
		if err != nil {
			return err
		}
		cases = append(cases, benchCase{name: fmt.Sprintf("local_search_engine_n%d", n), fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (heur.LocalSearch{MaxRounds: 10}).Schedule(ls); err != nil {
					b.Fatal(err)
				}
			}
		}})
	}
	hs, err := heurSet()
	if err != nil {
		return err
	}
	cases = append(cases,
		benchCase{name: "annealing_engine_n64", fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (heur.Annealing{Seed: 5, Iters: 2000}).Schedule(hs); err != nil {
					b.Fatal(err)
				}
			}
		}},
	)
	// The batched-sweep head-to-head: score one schedule shape under
	// sweepDraws perturbed cost draws (common random numbers, drawn once
	// up front), at each -cpu width. The per-schedule path is what the
	// sweep executor did before BatchEngine: mutate a cloned set's costs
	// in place and re-derive Times from scratch per draw (model.RT — one
	// full allocating walk each). The batched path attaches the schedule
	// shape once and streams 64-draw chunks through BatchEngine lanes.
	const sweepDraws, sweepN = 512, 64
	sset, err := heurSetN(sweepN)
	if err != nil {
		return err
	}
	ssch, err := heur.SlowestFirst{}.Schedule(sset)
	if err != nil {
		return err
	}
	nn := len(sset.Nodes)
	rng := rand.New(rand.NewSource(42))
	jit := func(base int64) int64 {
		v := int64(float64(base) * (0.75 + 0.5*rng.Float64()))
		if v < 1 {
			v = 1
		}
		return v
	}
	type costDraw struct {
		send, recv, lat []int64 // per NodeID; lat is uniform per draw
	}
	draws := make([]costDraw, sweepDraws)
	for t := range draws {
		d := costDraw{send: make([]int64, nn), recv: make([]int64, nn), lat: make([]int64, nn)}
		for i := 0; i < nn; i++ {
			d.send[i] = jit(sset.Nodes[i].Send)
			d.recv[i] = jit(sset.Nodes[i].Recv)
		}
		L := jit(sset.Latency)
		for i := range d.lat {
			d.lat[i] = L
		}
		draws[t] = d
	}
	for _, w := range cpus {
		w := w
		cases = append(cases,
			benchCase{name: fmt.Sprintf("sweep_score_perschedule_n%d_w%d", sweepN, w), procs: w, draws: sweepDraws, fn: func(b *testing.B) {
				sets := make([]*model.MulticastSet, w)
				schs := make([]*model.Schedule, w)
				sinks := make([]int64, w)
				for i := range sets {
					cs := &model.MulticastSet{Latency: sset.Latency, Nodes: append([]model.Node(nil), sset.Nodes...)}
					s2, err := heur.SlowestFirst{}.Schedule(cs)
					if err != nil {
						b.Fatal(err)
					}
					sets[i], schs[i] = cs, s2
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch.ForEach(w, sweepDraws, func(wk, t int) {
						cs := sets[wk]
						d := &draws[t]
						for j := range cs.Nodes {
							cs.Nodes[j].Send = d.send[j]
							cs.Nodes[j].Recv = d.recv[j]
						}
						cs.Latency = d.lat[0]
						sinks[wk] += model.RT(schs[wk])
					})
				}
			}},
			benchCase{name: fmt.Sprintf("sweep_score_batched_n%d_w%d", sweepN, w), procs: w, draws: sweepDraws, fn: func(b *testing.B) {
				const lanes = 64
				chunks := (sweepDraws + lanes - 1) / lanes
				bes := make([]*model.BatchEngine, w)
				sinks := make([]int64, w)
				type laneVecs struct{ send, recv, lat [][]int64 }
				scr := make([]laneVecs, w)
				for i := range bes {
					// The shape is fixed across the whole sweep, so each
					// worker attaches once and streams chunks through it.
					bes[i] = new(model.BatchEngine)
					bes[i].Attach(ssch, lanes)
					scr[i] = laneVecs{make([][]int64, lanes), make([][]int64, lanes), make([][]int64, lanes)}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch.ForEach(w, chunks, func(wk, c int) {
						lo := c * lanes
						hi := min(lo+lanes, sweepDraws)
						be, sv := bes[wk], &scr[wk]
						for t := lo; t < hi; t++ {
							d := &draws[t]
							sv.send[t-lo], sv.recv[t-lo], sv.lat[t-lo] = d.send, d.recv, d.lat
						}
						be.SetLanes(sv.send[:hi-lo], sv.recv[:hi-lo], sv.lat[:hi-lo])
						be.EvalAll()
						for _, rt := range be.RTs()[:hi-lo] {
							sinks[wk] += rt
						}
					})
				}
			}},
		)
	}
	report := engineReport{
		Tool:       "hnowbench -json (engine suite)",
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	nsPerMove := map[string]float64{}
	spsOf := map[string]float64{}
	for _, c := range cases {
		var r testing.BenchmarkResult
		if c.procs > 0 {
			withProcs(c.procs, func() { r = testing.Benchmark(c.fn) })
		} else {
			r = testing.Benchmark(c.fn)
		}
		br := engineBenchResult{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Workers:     c.procs,
		}
		if c.moves > 0 {
			br.NsPerMove = float64(r.NsPerOp()) / float64(c.moves)
			nsPerMove[c.name] = br.NsPerMove
		}
		if c.draws > 0 && r.NsPerOp() > 0 {
			br.SchedulesPerSec = float64(c.draws) * 1e9 / float64(r.NsPerOp())
			spsOf[c.name] = br.SchedulesPerSec
		}
		report.Results = append(report.Results, br)
		fmt.Fprintf(os.Stderr, "%-32s %12d ns/op %10.1f ns/move %12.0f sch/s %8d allocs/op\n",
			c.name, br.NsPerOp, br.NsPerMove, br.SchedulesPerSec, br.AllocsPerOp)
	}
	if ev := nsPerMove["engine_evalmoves_swapnbhd_n64"]; ev > 0 {
		report.SpeedupEvalMovesN64 = nsPerMove["fullrecompute_swapnbhd_n64"] / ev
	}
	if ev := nsPerMove["engine_evalmoves_swapnbhd_n256"]; ev > 0 {
		report.SpeedupEvalMovesN256 = nsPerMove["fullrecompute_swapnbhd_n256"] / ev
	}
	wStar := cpus[len(cpus)-1]
	for _, w := range cpus {
		if w == runtime.NumCPU() {
			wStar = w
		}
	}
	if ps := spsOf[fmt.Sprintf("sweep_score_perschedule_n%d_w%d", sweepN, wStar)]; ps > 0 {
		report.SpeedupBatchedSweepN64 = spsOf[fmt.Sprintf("sweep_score_batched_n%d_w%d", sweepN, wStar)] / ps
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (EvalMoves vs per-move full recompute: %.1fx at n=64, %.1fx at n=256; batched sweep vs per-schedule at w=%d: %.1fx)\n",
		out, report.SpeedupEvalMovesN64, report.SpeedupEvalMovesN256, wStar, report.SpeedupBatchedSweepN64)
	return nil
}
