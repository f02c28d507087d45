package service

import (
	"context"
	"expvar"
	"fmt"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/cluster"
	"repro/internal/exact"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/stats"
	"repro/internal/wan"
)

var (
	expSweepsStarted  = expvar.NewInt("hnowd.sweeps.started")
	expSweepsFinished = expvar.NewInt("hnowd.sweeps.finished")
)

// SweepRequest describes an asynchronous parameter sweep: Trials random
// instances drawn from the cluster generator and evaluated by the chosen
// schedulers on the batch worker pool. Instance i uses generator seed
// Seed+i, so a sweep is a pure function of its request and can be
// reproduced exactly by a direct batch run.
type SweepRequest struct {
	// Trials is the number of instances (required, > 0).
	Trials int `json:"trials"`
	// N is the number of destinations per instance (default 16).
	N int `json:"n"`
	// K is the number of distinct workstation types (default 3).
	K int `json:"k"`
	// Seed is the base generator seed; instance i uses Seed+i.
	Seed int64 `json:"seed"`
	// RatioMin and RatioMax bound receive-send ratios (defaults 1.05, 1.85).
	RatioMin float64 `json:"ratio_min,omitempty"`
	RatioMax float64 `json:"ratio_max,omitempty"`
	// MaxSend bounds sending overheads (default 64).
	MaxSend int64 `json:"max_send,omitempty"`
	// Latency is the network latency (default 10).
	Latency int64 `json:"latency,omitempty"`
	// Schedulers selects algorithms by registry name; empty means every
	// polynomial-time scheduler.
	Schedulers []string `json:"schedulers,omitempty"`
	// Workers caps the batch worker pool; 0 uses the server default, and
	// a count above GOMAXPROCS runs GOMAXPROCS workers.
	Workers int `json:"workers,omitempty"`
	// Perturbed, when positive, additionally rescores every scheduler's
	// tree under this many drawn cost perturbations per instance (batched
	// on the flat lane engine) and reports per-scheduler means of the
	// perturbed completion times in the result.
	Perturbed int `json:"perturbed,omitempty"`
	// Jitter is the perturbation amplitude in [0, 1): each cost is scaled
	// by a uniform factor in [1-Jitter, 1+Jitter].
	Jitter float64 `json:"jitter,omitempty"`
	// JitterSeed seeds the perturbation draws; instance i draws from
	// JitterSeed+i, so perturbed sweeps reproduce exactly.
	JitterSeed int64 `json:"jitter_seed,omitempty"`
	// Model selects the sweep's cost model: "" or "base" (receive-send),
	// "wan", "pipeline", "reduce" or "barrier". Perturbed rescoring is
	// base-model only.
	Model string `json:"model,omitempty"`
	// Segments is the pipeline segment count M >= 1 (model "pipeline").
	Segments int `json:"segments,omitempty"`
	// WAN parameterizes the clustered WAN generator (model "wan", where it
	// is required and replaces the cluster generator: instance i is the
	// topology drawn with WAN.Seed+i, schedulers optimize and score
	// against that instance's latency matrix).
	WAN *WANSpec `json:"wan,omitempty"`
}

// sweepModel checks the cost-model selection against the rest of the
// request and returns the sweep-wide cost model: nil for the base model
// and for "wan" (whose matrices are per-instance). It runs before fill(),
// so the cluster-generator fields still distinguish "unset" from their
// defaults: a WAN sweep ignores them, and silently ignoring explicit
// parameters is exactly the class of bug the cost-model seam exists to
// prevent.
func (req *SweepRequest) sweepModel() (model.CostModel, error) {
	if req.Model != "pipeline" && req.Segments != 0 {
		return nil, fmt.Errorf("\"segments\" applies to model \"pipeline\" only")
	}
	if req.Model != "wan" && req.WAN != nil {
		return nil, fmt.Errorf("\"wan\" applies to model \"wan\" only")
	}
	var cm model.CostModel
	if req.Model == "wan" {
		if req.WAN == nil {
			return nil, fmt.Errorf("model \"wan\" needs a \"wan\" generator spec")
		}
		if req.N != 0 || req.K != 0 || req.MaxSend != 0 || req.Latency != 0 ||
			req.RatioMin != 0 || req.RatioMax != 0 {
			return nil, fmt.Errorf("the cluster generator parameters (n, k, max_send, latency, ratio_min, ratio_max) do not apply to model \"wan\"; size the instance via the \"wan\" spec")
		}
	} else {
		var err error
		if cm, err = model.ByName(req.Model, req.Segments); err != nil {
			return nil, err
		}
		if req.Model == "pipeline" {
			if err := model.CheckSegments(req.Segments); err != nil {
				return nil, err
			}
		}
	}
	if req.Perturbed > 0 && req.Model != "" && req.Model != "base" {
		return nil, fmt.Errorf("perturbed rescoring supports the base model only, not %q", req.Model)
	}
	return cm, nil
}

// SweepResult aggregates a finished sweep.
type SweepResult struct {
	// Trials is the number of instances evaluated.
	Trials int `json:"trials"`
	// Errors counts failed trials (generation or scheduling errors).
	Errors int `json:"errors"`
	// FirstError is the first trial error, if any.
	FirstError string `json:"first_error,omitempty"`
	// Summaries maps scheduler name to its completion-time summary over
	// the successful trials.
	Summaries map[string]stats.Summary `json:"summaries"`
	// PerturbedSummaries maps scheduler name to the summary of its mean
	// perturbed completion times; only present when the request asked for
	// perturbed rescoring.
	PerturbedSummaries map[string]stats.Summary `json:"perturbed_summaries,omitempty"`
	// Wins maps scheduler name to the number of trials it (weakly) won.
	Wins map[string]int `json:"wins"`
}

// JobStatus is the lifecycle state of a sweep job.
type JobStatus string

// Job lifecycle states.
const (
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// Job is the public view of a sweep job, as returned by the sweeps API.
type Job struct {
	ID       string       `json:"id"`
	Status   JobStatus    `json:"status"`
	Request  SweepRequest `json:"request"`
	Created  time.Time    `json:"created"`
	Finished *time.Time   `json:"finished,omitempty"`
	// Result is set once Status is "done".
	Result *SweepResult `json:"result,omitempty"`
	// Error is set once Status is "failed".
	Error string `json:"error,omitempty"`
}

// sweepCaps bounds what one sweep request may ask for: a single
// unbounded request (billions of trials, enormous instances) would
// otherwise occupy the worker pool for hours with no way to shed it.
// Zero fields select the defaults; servers can override via Config.
type sweepCaps struct {
	maxTrials    int
	maxN         int
	maxK         int
	maxPerturbed int
}

func (c *sweepCaps) fill() {
	if c.maxTrials <= 0 {
		c.maxTrials = 50000
	}
	if c.maxN <= 0 {
		c.maxN = 2048
	}
	if c.maxK <= 0 {
		c.maxK = 16
	}
	if c.maxPerturbed <= 0 {
		c.maxPerturbed = 4096
	}
}

// jobStore owns the sweep jobs: a bounded map of job state plus the
// goroutines executing them. Finished jobs are retained for polling and
// evicted oldest-first once the store exceeds its bound; jobs still
// running are never evicted (starting a new job fails instead).
type jobStore struct {
	ctx            context.Context
	maxJobs        int
	defaultWorkers int
	buildSem       chan struct{} // the table cache's: exact-solver trials hold it
	caps           sweepCaps

	mu     sync.Mutex
	jobs   map[string]*jobState
	order  []string // insertion order, for bounded eviction
	nextID int

	wg sync.WaitGroup
}

type jobState struct {
	job Job // guarded by the store mutex
}

func newJobStore(ctx context.Context, maxJobs, defaultWorkers int, buildSem chan struct{}, caps sweepCaps) *jobStore {
	if maxJobs < 1 {
		maxJobs = 64
	}
	caps.fill()
	return &jobStore{ctx: ctx, maxJobs: maxJobs, defaultWorkers: defaultWorkers, buildSem: buildSem,
		caps: caps, jobs: map[string]*jobState{}}
}

// boundedSolver is the exact DP solver holding the build semaphore
// around each schedule, so a sweep's fills count against the same bound
// as the table cache's builds. It delegates Name, so sweep result keys
// are the solver's own.
type boundedSolver struct {
	exact.Solver
	sem chan struct{}
	ctx context.Context
}

func (b boundedSolver) Schedule(set *model.MulticastSet) (*model.Schedule, error) {
	select {
	case b.sem <- struct{}{}:
	case <-b.ctx.Done(): // shutdown must not wait for a build slot
		return nil, b.ctx.Err()
	}
	defer func() { <-b.sem }()
	return b.Solver.Schedule(set)
}

// fill defaults the cluster generator's size. A WAN sweep is sized by its
// spec and sweepModel rejects these fields on it, so they stay unset there
// and the request a job echoes can be submitted again.
func (req *SweepRequest) fill() {
	if req.Model == "wan" {
		return
	}
	if req.N == 0 {
		req.N = 16
	}
	if req.K == 0 {
		req.K = 3
	}
}

// start validates the request, registers a running job and launches its
// sweep goroutine. It fails if the request is invalid or the store is
// full of still-running jobs.
func (js *jobStore) start(req SweepRequest) (Job, error) {
	cm, err := req.sweepModel()
	if err != nil {
		return Job{}, err
	}
	req.fill()
	if req.Trials <= 0 {
		return Job{}, fmt.Errorf("trials must be positive, got %d", req.Trials)
	}
	if req.Trials > js.caps.maxTrials {
		return Job{}, fmt.Errorf("trials %d exceeds the server cap %d", req.Trials, js.caps.maxTrials)
	}
	if req.N > js.caps.maxN {
		return Job{}, fmt.Errorf("n %d exceeds the server cap %d", req.N, js.caps.maxN)
	}
	if req.K > js.caps.maxK {
		return Job{}, fmt.Errorf("k %d exceeds the server cap %d", req.K, js.caps.maxK)
	}
	// The generator draws K distinct send overheads from [1, MaxSend]
	// (default 64 when the request omits it) and rejects a K beyond that
	// range itself; checking here too, against the effective default,
	// turns it into a 400 at submission rather than a failed job.
	maxSend := req.MaxSend
	if maxSend <= 0 {
		maxSend = 64 // cluster.GenConfig's fill() default
	}
	if int64(req.K) > maxSend {
		return Job{}, fmt.Errorf("k %d distinct send overheads cannot be drawn from [1,%d]", req.K, maxSend)
	}
	if req.Perturbed < 0 {
		return Job{}, fmt.Errorf("perturbed must be non-negative, got %d", req.Perturbed)
	}
	if req.Perturbed > js.caps.maxPerturbed {
		return Job{}, fmt.Errorf("perturbed %d exceeds the server cap %d", req.Perturbed, js.caps.maxPerturbed)
	}
	if req.Perturbed > 0 && (req.Jitter < 0 || req.Jitter >= 1) {
		return Job{}, fmt.Errorf("jitter %v outside [0, 1)", req.Jitter)
	}
	var schedulers []model.Scheduler
	switch req.Model {
	case "", "base":
		schedulers, err = registry.Select(req.Schedulers, req.Seed)
		for i, sc := range schedulers {
			if sv, ok := sc.(exact.Solver); ok {
				schedulers[i] = boundedSolver{Solver: sv, sem: js.buildSem, ctx: js.ctx}
			}
		}
	case "wan":
		// The instance sizes come from the WAN spec, so the n cap must too.
		if n := req.WAN.Clusters * req.WAN.NodesPerCluster; n > js.caps.maxN {
			return Job{}, fmt.Errorf("wan instance size %d exceeds the server cap %d", n, js.caps.maxN)
		}
		// Validate the spec up front by drawing instance 0; per-trial
		// matrices are regenerated inside the sweep.
		if _, err := req.WAN.generate(); err != nil {
			return Job{}, err
		}
		// Resolve names against a placeholder link model: whether a name is
		// model-capable (e.g. "optimal" is not) does not depend on the
		// matrix, which differs per trial anyway.
		schedulers, err = registry.SelectFor(req.Schedulers, req.Seed, &model.LinkModel{})
	default:
		schedulers, err = registry.SelectFor(req.Schedulers, req.Seed, cm)
	}
	if err != nil {
		return Job{}, err
	}
	workers := req.Workers
	if workers <= 0 {
		workers = js.defaultWorkers
	}

	js.mu.Lock()
	if len(js.jobs) >= js.maxJobs && !js.evictFinishedLocked() {
		js.mu.Unlock()
		return Job{}, fmt.Errorf("job store full: %d jobs running", js.maxJobs)
	}
	js.nextID++
	id := fmt.Sprintf("sweep-%d", js.nextID)
	st := &jobState{job: Job{ID: id, Status: JobRunning, Request: req, Created: time.Now().UTC()}}
	js.jobs[id] = st
	js.order = append(js.order, id)
	job := st.job
	js.mu.Unlock()

	expSweepsStarted.Add(1)
	js.wg.Add(1)
	go js.run(st, req, cm, schedulers, workers)
	return job, nil
}

// evictFinishedLocked removes the oldest finished job; it reports whether
// room was made.
func (js *jobStore) evictFinishedLocked() bool {
	for i, id := range js.order {
		if st := js.jobs[id]; st.job.Status != JobRunning {
			delete(js.jobs, id)
			js.order = append(js.order[:i], js.order[i+1:]...)
			return true
		}
	}
	return false
}

func (js *jobStore) run(st *jobState, req SweepRequest, cm model.CostModel, schedulers []model.Scheduler, workers int) {
	defer js.wg.Done()
	defer expSweepsFinished.Add(1)
	sweep := batch.Sweep{
		Gen: func(i int) (*model.MulticastSet, error) {
			// Abort pending trials promptly on server shutdown.
			if err := js.ctx.Err(); err != nil {
				return nil, err
			}
			return cluster.Generate(cluster.GenConfig{
				N: req.N, K: req.K, Seed: req.Seed + int64(i),
				RatioMin: req.RatioMin, RatioMax: req.RatioMax,
				MaxSend: req.MaxSend, Latency: req.Latency,
			})
		},
		Schedulers: schedulers,
		Model:      cm,
		Trials:     req.Trials,
		Workers:    workers,
		Perturbed:  req.Perturbed,
		Jitter:     req.Jitter,
		JitterSeed: req.JitterSeed,
	}
	if req.Model == "wan" {
		// WAN trials draw whole topologies: instance i is the clustered
		// topology with spec seed+i, and its latency matrix rides along as
		// the trial's cost model, with the schedulers re-resolved against it
		// so the searches optimize that matrix rather than merely being
		// scored under it.
		spec := *req.WAN
		topoAt := func(i int) (*wan.Topology, error) {
			if err := js.ctx.Err(); err != nil {
				return nil, err
			}
			sp := spec
			sp.Seed += int64(i)
			return sp.generate()
		}
		sweep.Gen = func(i int) (*model.MulticastSet, error) {
			topo, err := topoAt(i)
			if err != nil {
				return nil, err
			}
			return topo.BaseSet(topo.MinLatency()), nil
		}
		sweep.GenModel = func(i int, _ *model.MulticastSet) (model.CostModel, error) {
			topo, err := topoAt(i)
			if err != nil {
				return nil, err
			}
			return &model.LinkModel{Lat: topo.Lat}, nil
		}
		sweep.SchedulersFor = func(cm model.CostModel) ([]model.Scheduler, error) {
			return registry.SelectFor(req.Schedulers, req.Seed, cm)
		}
	}
	results, err := sweep.Run()
	now := time.Now().UTC()

	js.mu.Lock()
	defer js.mu.Unlock()
	st.job.Finished = &now
	if err == nil {
		err = js.ctx.Err() // shutdown mid-sweep fails the job rather than reporting partial data
	}
	if err != nil {
		st.job.Status = JobFailed
		st.job.Error = err.Error()
		return
	}
	res := &SweepResult{
		Trials:    len(results),
		Summaries: make(map[string]stats.Summary, len(schedulers)),
		Wins:      batch.WinCounts(results),
	}
	for _, r := range results {
		if r.Err != nil {
			res.Errors++
		}
	}
	if first := batch.FirstError(results); first != nil {
		res.FirstError = first.Error()
	}
	for _, sc := range schedulers {
		res.Summaries[sc.Name()] = batch.Aggregate(results, sc.Name())
	}
	if req.Perturbed > 0 {
		res.PerturbedSummaries = make(map[string]stats.Summary, len(schedulers))
		for _, sc := range schedulers {
			res.PerturbedSummaries[sc.Name()] = batch.AggregateJitter(results, sc.Name())
		}
	}
	st.job.Status = JobDone
	st.job.Result = res
}

// get returns a snapshot of the job.
func (js *jobStore) get(id string) (Job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	st, ok := js.jobs[id]
	if !ok {
		return Job{}, false
	}
	return st.job, true
}

// list returns snapshots of every retained job in creation order.
func (js *jobStore) list() []Job {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make([]Job, 0, len(js.order))
	for _, id := range js.order {
		out = append(out, js.jobs[id].job)
	}
	return out
}

// wait blocks until every job goroutine has exited.
func (js *jobStore) wait() { js.wg.Wait() }
