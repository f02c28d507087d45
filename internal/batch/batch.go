// Package batch evaluates many multicast instances across many schedulers
// in parallel. It is the compute engine for large parameter sweeps: a
// fixed-size worker pool of goroutines drains an index channel and writes
// into pre-sized result slots, so output is deterministic regardless of
// the degree of parallelism.
package batch

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/stats"
)

// maxForEachChunk caps the number of consecutive indices a worker claims
// per atomic fetch. The chunk scales down with n so that coarse-grained
// jobs (e.g. sweep trials) still spread across every worker, and up to
// this cap so that fine-grained jobs (e.g. DP states) amortize the atomic.
const maxForEachChunk = 64

// Chunk returns the number of consecutive indices one worker should
// claim per atomic fetch when n items are drained by workers goroutines
// through a shared cursor: ~8 chunks per worker so stragglers rebalance,
// clamped to [1, 64] so fine-grained items still amortize the atomic.
// ForEach uses it internally; exported for pools that manage their own
// cursor (e.g. the exact DP's persistent layer-fill pool).
func Chunk(n, workers int) int64 {
	chunk := int64(n / (workers * 8))
	if chunk < 1 {
		chunk = 1
	}
	if chunk > maxForEachChunk {
		chunk = maxForEachChunk
	}
	return chunk
}

// ForEach invokes fn(worker, i) for every i in [0, n), distributing the
// indices over up to workers goroutines (0 selects GOMAXPROCS). worker is
// a stable 0-based identifier of the calling goroutine, so fn can index
// per-worker scratch without locking. Indices are handed out in chunks via
// an atomic cursor; every index is processed exactly once. ForEach returns
// after all calls complete. With workers <= 1 (or n == 1) it degenerates
// to a plain loop on the calling goroutine with worker = 0.
func ForEach(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	chunk := Chunk(n, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				start := cursor.Add(chunk) - chunk
				if start >= int64(n) {
					return
				}
				end := start + chunk
				if end > int64(n) {
					end = int64(n)
				}
				for i := start; i < end; i++ {
					fn(worker, int(i))
				}
			}
		}(w)
	}
	wg.Wait()
}

// Result is the evaluation of one instance by every scheduler.
type Result struct {
	// Index is the instance's position in the sweep.
	Index int
	// RT maps scheduler name to reception completion time.
	RT map[string]int64
	// JitterRT maps scheduler name to its mean reception completion time
	// across the sweep's perturbed cost draws. Nil unless Sweep.Perturbed
	// is positive.
	JitterRT map[string]float64
	// Err records a generation or scheduling failure; other fields are
	// zero when set.
	Err error
}

// Sweep describes a parallel experiment: Trials instances produced by Gen
// and evaluated by every scheduler, optionally rescored under drawn cost
// jitter to measure robustness of the fixed trees.
type Sweep struct {
	// Gen builds the i-th instance. It must be safe for concurrent calls
	// with distinct i (pure functions of i, e.g. seeded generators, are).
	Gen func(i int) (*model.MulticastSet, error)
	// Schedulers are applied to every instance. Implementations must be
	// safe for concurrent use (all schedulers in this repository are:
	// they keep no mutable state across calls).
	Schedulers []model.Scheduler
	// Model, when non-nil and not the base model, scores every schedule
	// under this cost model: each scheduler's tree is bound to the model
	// before evaluation (schedulers from registry.SchedulersFor already
	// optimize for it; structural schedulers are scored as-is). Perturbed
	// rescoring is base-model only.
	Model model.CostModel
	// GenModel, when set, supplies instance i's cost model alongside the
	// instance itself — e.g. the latency matrix of a generated WAN topology,
	// which differs per trial. It must be safe for concurrent calls with
	// distinct i and may return a nil model for the base objective.
	// Mutually exclusive with Model; Perturbed rescoring is unsupported.
	GenModel func(i int, set *model.MulticastSet) (model.CostModel, error)
	// SchedulersFor, when set (requires GenModel), builds the scheduler
	// list for one instance's model — e.g. registry.SchedulersFor, so the
	// searches optimize that instance's matrix. The returned schedulers
	// must keep the names of the Schedulers field, which still defines the
	// sweep's name set for aggregation. Nil falls back to Schedulers with
	// the model bound for scoring only.
	SchedulersFor func(cm model.CostModel) ([]model.Scheduler, error)
	// Trials is the number of instances.
	Trials int
	// Workers caps the worker pool; 0, or more than GOMAXPROCS, means
	// GOMAXPROCS.
	Workers int

	// Perturbed, when positive, additionally scores every scheduler's
	// tree under this many perturbed cost draws per instance and reports
	// the mean in Result.JitterRT. Draws use common random numbers: all
	// schedulers of one instance see the same cost vectors, so their
	// JitterRT values are directly comparable.
	Perturbed int
	// Jitter is the uniform perturbation amplitude: each cost is scaled
	// by an independent factor in [1-Jitter, 1+Jitter], clamped to at
	// least one time unit. Must be in [0, 1) when Perturbed is positive.
	Jitter float64
	// JitterSeed seeds the draws; instance i uses JitterSeed+i, so the
	// sweep is deterministic regardless of parallelism.
	JitterSeed int64
}

// sweepLanes is the batch width of the perturbed rescoring pass: chunks
// of this many draws share one BatchEngine attachment.
const sweepLanes = 64

// sweepScratch is one worker's reusable evaluation state: the flat
// engine that replaces per-call ComputeTimes allocation for nominal
// scoring, and (for perturbed sweeps) a pooled batch engine plus drawn
// cost vectors. Indexed by the stable ForEach worker id, so no locking.
type sweepScratch struct {
	eng   model.Engine
	be    *model.BatchEngine // lazily from Engines, returned after the sweep
	schs  []*model.Schedule
	draws [][3][]int64 // per lane: send, recv, latency vectors
	costs [3][][]int64 // the same draws regrouped per kind for SetLanes
	sums  []float64
}

// Run executes the sweep and returns one Result per trial, in trial
// order. Individual failures are reported in Result.Err; Run itself only
// fails on configuration errors.
func (s Sweep) Run() ([]Result, error) {
	if s.Gen == nil {
		return nil, fmt.Errorf("batch: Gen is nil")
	}
	if s.Trials < 0 {
		return nil, fmt.Errorf("batch: negative trials")
	}
	if len(s.Schedulers) == 0 {
		return nil, fmt.Errorf("batch: no schedulers")
	}
	if s.Perturbed < 0 {
		return nil, fmt.Errorf("batch: negative perturbed draw count")
	}
	if s.Perturbed > 0 && (s.Jitter < 0 || s.Jitter >= 1) {
		return nil, fmt.Errorf("batch: jitter amplitude %v outside [0, 1)", s.Jitter)
	}
	if s.Perturbed > 0 && !model.IsBase(s.Model) {
		return nil, fmt.Errorf("batch: perturbed rescoring supports the base model only, not %q", s.Model.Name())
	}
	if s.GenModel != nil {
		if !model.IsBase(s.Model) {
			return nil, fmt.Errorf("batch: Model and GenModel are mutually exclusive")
		}
		if s.Perturbed > 0 {
			return nil, fmt.Errorf("batch: perturbed rescoring supports the base model only")
		}
	} else if s.SchedulersFor != nil {
		return nil, fmt.Errorf("batch: SchedulersFor requires GenModel")
	}
	names := map[string]bool{}
	for _, sc := range s.Schedulers {
		if names[sc.Name()] {
			return nil, fmt.Errorf("batch: duplicate scheduler name %q", sc.Name())
		}
		names[sc.Name()] = true
	}
	// Trials are CPU-bound, so more workers than cores never helps, and
	// the count can arrive from the network (/v1/sweeps' workers field):
	// clamp it before sizing any per-worker state.
	workers := s.Workers
	if workers <= 0 || workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > s.Trials {
		workers = s.Trials
	}
	scratch := make([]sweepScratch, max(workers, 1))
	results := make([]Result, s.Trials)
	ForEach(workers, s.Trials, func(w, i int) {
		results[i] = s.evalOne(&scratch[w], i)
	})
	for w := range scratch {
		if scratch[w].be != nil {
			Engines.Put(scratch[w].be)
			scratch[w].be = nil
		}
	}
	return results, nil
}

func (s Sweep) evalOne(sc *sweepScratch, i int) Result {
	set, err := s.Gen(i)
	if err != nil {
		return Result{Index: i, Err: fmt.Errorf("batch: gen(%d): %w", i, err)}
	}
	cm := s.Model
	scheds := s.Schedulers
	if s.GenModel != nil {
		if cm, err = s.GenModel(i, set); err != nil {
			return Result{Index: i, Err: fmt.Errorf("batch: genmodel(%d): %w", i, err)}
		}
		if s.SchedulersFor != nil {
			if scheds, err = s.SchedulersFor(cm); err != nil {
				return Result{Index: i, Err: fmt.Errorf("batch: schedulers for instance %d: %w", i, err)}
			}
		}
	}
	rt := make(map[string]int64, len(scheds))
	sc.schs = sc.schs[:0]
	for _, schd := range scheds {
		sch, err := schd.Schedule(set)
		if err != nil {
			return Result{Index: i, Err: fmt.Errorf("batch: %s on instance %d: %w", schd.Name(), i, err)}
		}
		if !model.IsBase(cm) {
			sch.BindModel(cm)
		}
		sc.eng.Attach(sch)
		rt[schd.Name()] = sc.eng.RT()
		sc.schs = append(sc.schs, sch)
	}
	res := Result{Index: i, RT: rt}
	if s.Perturbed > 0 {
		res.JitterRT = s.rescorePerturbed(sc, i)
	}
	return res
}

// rescorePerturbed scores instance i's schedules under s.Perturbed drawn
// cost vectors in batched chunks, returning per-scheduler means. Each
// chunk is drawn once and applied to every scheduler (common random
// numbers), and each draw perturbs every node's send, receive and
// latency cost independently — nodes in id order, send then recv then
// latency, mirroring sim.Trials' canonical draw order.
func (s Sweep) rescorePerturbed(sc *sweepScratch, i int) map[string]float64 {
	n := len(sc.schs[0].Set.Nodes)
	set := sc.schs[0].Set
	if sc.be == nil {
		sc.be = Engines.Get()
	}
	if cap(sc.sums) < len(sc.schs) {
		sc.sums = make([]float64, len(sc.schs))
	}
	sums := sc.sums[:len(sc.schs)]
	for k := range sums {
		sums[k] = 0
	}
	rng := rand.New(rand.NewSource(s.JitterSeed + int64(i)))
	for lo := 0; lo < s.Perturbed; lo += sweepLanes {
		lanes := min(sweepLanes, s.Perturbed-lo)
		for len(sc.draws) < lanes {
			sc.draws = append(sc.draws, [3][]int64{})
		}
		for b := 0; b < lanes; b++ {
			d := &sc.draws[b]
			for c := range d {
				if cap(d[c]) < n {
					d[c] = make([]int64, n)
				}
				d[c] = d[c][:n]
			}
			for v := 0; v < n; v++ {
				d[0][v] = jitterCost(rng, s.Jitter, set.Nodes[v].Send)
				d[1][v] = jitterCost(rng, s.Jitter, set.Nodes[v].Recv)
				d[2][v] = jitterCost(rng, s.Jitter, set.Latency)
			}
		}
		for c := range sc.costs {
			if cap(sc.costs[c]) < lanes {
				sc.costs[c] = make([][]int64, lanes)
			}
			sc.costs[c] = sc.costs[c][:lanes]
		}
		for b := 0; b < lanes; b++ {
			sc.costs[0][b] = sc.draws[b][0]
			sc.costs[1][b] = sc.draws[b][1]
			sc.costs[2][b] = sc.draws[b][2]
		}
		for k, sch := range sc.schs {
			sc.be.Attach(sch, lanes)
			sc.be.SetLanes(sc.costs[0], sc.costs[1], sc.costs[2])
			sc.be.EvalAll()
			for _, v := range sc.be.RTs() {
				sums[k] += float64(v)
			}
		}
	}
	out := make(map[string]float64, len(s.Schedulers))
	for k, schd := range s.Schedulers {
		out[schd.Name()] = sums[k] / float64(s.Perturbed)
	}
	return out
}

// jitterCost scales base by a uniform factor in [1-amp, 1+amp], clamped
// to at least one time unit — the same draw sim.UniformJitter makes,
// reimplemented here because package sim builds on this one.
func jitterCost(rng *rand.Rand, amp float64, base int64) int64 {
	f := 1 - amp + 2*amp*rng.Float64()
	v := int64(float64(base) * f)
	if v < 1 {
		v = 1
	}
	return v
}

// Aggregate summarizes one scheduler's completion times across the sweep,
// skipping failed trials.
func Aggregate(results []Result, scheduler string) stats.Summary {
	var xs []float64
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if v, ok := r.RT[scheduler]; ok {
			xs = append(xs, float64(v))
		}
	}
	return stats.Summarize(xs)
}

// AggregateJitter summarizes one scheduler's mean perturbed completion
// times across the sweep, skipping failed trials. The summary is empty
// unless the sweep ran with Perturbed > 0.
func AggregateJitter(results []Result, scheduler string) stats.Summary {
	var xs []float64
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if v, ok := r.JitterRT[scheduler]; ok {
			xs = append(xs, v)
		}
	}
	return stats.Summarize(xs)
}

// WinCounts returns, per scheduler, how many trials it (weakly) won.
func WinCounts(results []Result) map[string]int {
	wins := map[string]int{}
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		best := int64(-1)
		for _, v := range r.RT {
			if best == -1 || v < best {
				best = v
			}
		}
		for name, v := range r.RT {
			if v == best {
				wins[name]++
			}
		}
	}
	return wins
}

// FirstError returns the first trial error, or nil.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
