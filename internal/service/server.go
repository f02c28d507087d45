package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/batch"
	"repro/internal/bounds"
	"repro/internal/exact"
	"repro/internal/lower"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/trace"
)

var expRequests = expvar.NewInt("hnowd.requests")

// Config tunes a Server. Zero values select sensible defaults.
type Config struct {
	// CacheSize is the plan-cache capacity in entries (default 4096).
	CacheSize int
	// CacheShards is the number of cache shards (default 16, rounded up
	// to a power of two).
	CacheShards int
	// Workers is the default batch worker-pool size for sweeps; 0 lets
	// the pool size itself to GOMAXPROCS.
	Workers int
	// MaxJobs bounds the sweep job store (default 64).
	MaxJobs int
	// TableMemBytes is the byte budget for materialized DP tables kept
	// warm (default 1 GiB). Tables are whole-network precomputations —
	// mapped ones cost page cache, heap ones cost the Go heap — and the
	// least recently used are evicted once the budget is exceeded.
	TableMemBytes int64
	// TableWorkers is the default fill parallelism for /v1/table builds;
	// 0 selects GOMAXPROCS.
	TableWorkers int
	// TableDir, when non-empty, persists every built DP table to this
	// directory (atomic temp-file + rename, versioned checksummed format,
	// sharded by hash prefix) and checks it before building, so a
	// restarted daemon keeps its network precomputations. Only the shard
	// subdirectories are read; a file at the top level is ignored. ""
	// disables the spill.
	TableDir string
	// SweepMaxTrials / SweepMaxN / SweepMaxK cap sweep requests (defaults
	// 50000 trials, 2048 destinations, 16 types): one unbounded sweep
	// must not wedge the daemon for hours. Oversized requests are
	// rejected with 422.
	SweepMaxTrials int
	SweepMaxN      int
	SweepMaxK      int
	// SweepMaxPerturbed caps the per-instance perturbed draw count of a
	// sweep request (default 4096).
	SweepMaxPerturbed int

	// Self, when non-empty, enables fleet mode: it is this replica's
	// advertised base URL (e.g. "http://10.0.0.3:8080"), the identity
	// under which it appears in the membership ring. Peers lists every
	// replica's base URL (Self is added if absent). A consistent-hash
	// ring over the canonical network keys assigns each key an owner
	// replica; see internal/service/fleet.go for the routing semantics.
	Self  string
	Peers []string
	// FleetBuildTimeout bounds a build-and-stream request to a key's
	// owner, which may cover a DP fill (default 15m).
	FleetBuildTimeout time.Duration
	// FleetRetries is how many extra attempts follow a transport-level
	// peer failure (default 1; semantic refusals are never retried).
	FleetRetries int
	// FleetBreakerThreshold consecutive failures open a peer's circuit
	// for FleetBreakerCooldown (defaults 3 failures, 5s).
	FleetBreakerThreshold int
	FleetBreakerCooldown  time.Duration
}

// Server is the hnowd scheduling service: a plan cache over the
// algorithm registry, plus asynchronous sweep jobs. Create with New,
// mount Handler on an http.Server, and Close on shutdown.
type Server struct {
	cache        *Cache
	tables       *tableCache
	tableWorkers int
	jobs         *jobStore
	fleet        *fleetState // nil outside fleet mode
	mux          *http.ServeMux
	cancel       context.CancelFunc
	// maxRequestBytes is MaxRequestBytes; tests lower it to reach the cap
	// with small bodies.
	maxRequestBytes int64
}

// New builds a Server. The jobs it launches stop when Close is called.
func New(cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 4096
	}
	if cfg.CacheShards <= 0 {
		cfg.CacheShards = 16
	}
	ctx, cancel := context.WithCancel(context.Background())
	tables := newTableCache(cfg.TableMemBytes, cfg.TableDir)
	s := &Server{
		cache:        NewCache(cfg.CacheSize, cfg.CacheShards),
		tables:       tables,
		tableWorkers: cfg.TableWorkers,
		jobs: newJobStore(ctx, cfg.MaxJobs, cfg.Workers, tables.buildSem,
			sweepCaps{maxTrials: cfg.SweepMaxTrials, maxN: cfg.SweepMaxN, maxK: cfg.SweepMaxK,
				maxPerturbed: cfg.SweepMaxPerturbed}),
		mux:             http.NewServeMux(),
		cancel:          cancel,
		maxRequestBytes: MaxRequestBytes,
	}
	if cfg.Self != "" {
		s.fleet = newFleetState(cfg)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/fleet/ring", s.handleFleetRing)
	s.mux.HandleFunc("POST /v1/fleet/table/{key}", s.handleFleetTablePost)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /v1/compare", s.handleCompare)
	s.mux.HandleFunc("POST /v1/render", s.handleRender)
	s.mux.HandleFunc("POST /v1/table", s.handleTable)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepStart)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		expRequests.Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// Close cancels outstanding sweep jobs and waits for their goroutines to
// exit. The Handler stays usable (jobs started after Close fail fast).
func (s *Server) Close() {
	s.cancel()
	s.jobs.wait()
}

// ScheduleRequest asks for one schedule. Set is the instance in the
// trace codec's set encoding: {"latency": L, "nodes": [{"send","recv"}...]}
// with nodes[0] the source. The embedded ModelParams select the cost
// model; omitted they choose the base receive-send model.
type ScheduleRequest struct {
	// Algo is a registry algorithm name (default "greedy+leafrev").
	Algo string `json:"algo,omitempty"`
	// Seed drives the randomized schedulers; ignored (and excluded from
	// the cache key) for deterministic ones.
	Seed int64           `json:"seed,omitempty"`
	Set  json.RawMessage `json:"set,omitempty"`
	ModelParams
}

// Theorem1 reports the paper's Theorem 1 constants for the instance.
type Theorem1 struct {
	AlphaMin float64 `json:"alpha_min"`
	AlphaMax float64 `json:"alpha_max"`
	Beta     int64   `json:"beta"`
	C        float64 `json:"c"`
}

// ScheduleResponse is the reply to POST /v1/schedule.
type ScheduleResponse struct {
	Algo string `json:"algo"`
	// Key is the canonical plan-cache key the request resolved to.
	Key string `json:"key"`
	// Cache is "hit" or "miss".
	Cache string `json:"cache"`
	RT    int64  `json:"rt"`
	DT    int64  `json:"dt"`
	// LowerBound is the strongest provable lower bound on the optimal RT.
	LowerBound int64    `json:"lower_bound"`
	Theorem1   Theorem1 `json:"theorem1"`
	// Schedule is the plan in the trace codec's compact schedule encoding,
	// on the canonical (destination-sorted, unnamed) instance. hnowd
	// writes the plan cache's stored bytes here verbatim.
	Schedule json.RawMessage `json:"schedule"`
}

// CompareRequest asks for every polynomial scheduler on one instance.
type CompareRequest struct {
	Seed int64           `json:"seed,omitempty"`
	Set  json.RawMessage `json:"set,omitempty"`
	// Optimal also attempts the exact DP (bounded by its state-space
	// guard; silently omitted if infeasible). Base model only.
	Optimal bool `json:"optimal,omitempty"`
	ModelParams
}

// CompareResponse is the reply to POST /v1/compare.
type CompareResponse struct {
	// RT maps scheduler name to reception completion time.
	RT map[string]int64 `json:"rt"`
	// Optimal is the exact DP completion time, when requested and feasible.
	Optimal    *int64   `json:"optimal,omitempty"`
	LowerBound int64    `json:"lower_bound"`
	Theorem1   Theorem1 `json:"theorem1"`
}

// RenderRequest asks for a rendered schedule.
type RenderRequest struct {
	Algo string          `json:"algo,omitempty"`
	Seed int64           `json:"seed,omitempty"`
	Set  json.RawMessage `json:"set,omitempty"`
	// Format is one of tree, gantt, dot, svg, json (default tree). The
	// text renderers draw base-model timings, so a non-base model allows
	// "json" only.
	Format string `json:"format,omitempty"`
	// Width caps gantt columns (default 100, at most MaxRenderWidth; a
	// larger width is a 400).
	Width int `json:"width,omitempty"`
	ModelParams
}

// MaxRenderWidth caps RenderRequest.Width. A gantt row is up to Width+1
// bytes per node, so the cap bounds the body a request can make.
const MaxRenderWidth = 1000

// MaxRequestBytes caps every POST body; a longer body is a 413 naming the
// cap. A compact n=65,536 set is about 1.4 MB of JSON, so the cap admits
// any instance the schedulers can answer in reasonable time, and bounds
// what one request can make hnowd read and decode.
const MaxRequestBytes = 8 << 20

type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes v as compact JSON.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeSchedule writes r as writeJSON would, except that r.Schedule is
// copied verbatim: hnowd made those bytes itself through
// trace.MarshalTimes, so a plan-cache hit re-validates and re-encodes
// nothing. Outside the schedule the body is byte-identical to
// encoding/json's.
func writeSchedule(w http.ResponseWriter, r *ScheduleResponse) {
	b := appendScheduleResponse(make([]byte, 0, 320+len(r.Algo)+len(r.Key)+len(r.Schedule)), r)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

// appendScheduleResponse appends writeSchedule's body for r to b.
func appendScheduleResponse(b []byte, r *ScheduleResponse) []byte {
	b = append(b, `{"algo":`...)
	b = appendJSONString(b, r.Algo)
	b = append(b, `,"key":`...)
	b = appendJSONString(b, r.Key)
	b = append(b, `,"cache":`...)
	b = appendJSONString(b, r.Cache)
	b = append(b, `,"rt":`...)
	b = strconv.AppendInt(b, r.RT, 10)
	b = append(b, `,"dt":`...)
	b = strconv.AppendInt(b, r.DT, 10)
	b = append(b, `,"lower_bound":`...)
	b = strconv.AppendInt(b, r.LowerBound, 10)
	b = append(b, `,"theorem1":{"alpha_min":`...)
	b = appendJSONFloat(b, r.Theorem1.AlphaMin)
	b = append(b, `,"alpha_max":`...)
	b = appendJSONFloat(b, r.Theorem1.AlphaMax)
	b = append(b, `,"beta":`...)
	b = strconv.AppendInt(b, r.Theorem1.Beta, 10)
	b = append(b, `,"c":`...)
	b = appendJSONFloat(b, r.Theorem1.C)
	b = append(b, `},"schedule":`...)
	b = append(b, r.Schedule...)
	return append(b, "}\n"...)
}

// appendJSONString appends s quoted as encoding/json quotes it. Keys and
// registry names need no escape; anything else takes encoding/json's own
// path.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json formats a float64. Theorem 1's
// constants are finite: the instance's overheads are positive integers.
func appendJSONFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		// encoding/json writes e-07 as e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// decodeRequest decodes a JSON request body into req (see envelope.go).
// An unknown field is an error, so a misspelt option is a 400 naming it
// rather than silently ignored, and a body over the server's cap
// (MaxRequestBytes) is a 413. On failure it has written the error and
// returns false.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, req request) bool {
	body, err := readBody(w, r, s.maxRequestBytes)
	if err == nil {
		err = decodeBody(body, req.fields())
	}
	if err != nil {
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the cap of %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "algorithms": registry.Names()})
}

// decodeSet parses and validates the embedded instance of a request.
func decodeSet(raw json.RawMessage) (*model.MulticastSet, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("missing \"set\"")
	}
	return trace.UnmarshalSetJSON(raw)
}

// planModel plans a set already in canonical form under a cost model
// (the zero resolvedModel is the base model), so handlers that resolve
// several algorithms on one instance canonicalize once. The algorithm
// resolves to its model-aware variant, the schedule is bound to the
// model before encoding and scoring, and the model joins the cache key
// so a WAN plan can never be served for a base request of the same
// network (or vice versa). The paper's lower bounds argue about the base
// objective only, so non-base plans report a trivial zero bound. A
// non-nil bd supplies base-model bounds the caller already computed for
// canon; nil computes them here on a miss. ctx bounds an exact answer's
// table fetch from its fleet owner.
func (s *Server) planModel(ctx context.Context, canon *model.MulticastSet, algo string, seed int64, rm resolvedModel, bd *baseBounds) (*Plan, string, bool, error) {
	if !registry.Seeded(algo) {
		seed = 0 // deterministic algorithms share one cache entry across seeds
	}
	key := KeyCanonicalModel(canon, algo, seed, rm)
	if p, ok := s.cache.Get(key); ok {
		return p, key, true, nil
	}
	sched, err := registry.LookupFor(algo, seed, rm.cm)
	if err != nil {
		return nil, key, false, err
	}
	var sch *model.Schedule
	if _, ok := sched.(exact.Solver); ok {
		sch, err = s.optimalSchedule(ctx, canon)
	} else {
		sch, err = sched.Schedule(canon)
	}
	if err != nil {
		return nil, key, false, err
	}
	if rm.cm != nil {
		sch.BindModel(rm.cm) // structural schedulers return untagged trees
	}
	var tm model.Times
	js, err := trace.MarshalTimes(sch, &tm)
	if err != nil {
		return nil, key, false, err
	}
	p := &Plan{
		Algo:         algo,
		ScheduleJSON: js,
		RT:           tm.RT,
		DT:           tm.DT,
	}
	if rm.cm == nil {
		if bd == nil {
			bd = baseBoundsOf(canon)
		}
		p.LowerBound, p.Bound = bd.lower, bd.params
	}
	s.cache.Put(key, p)
	return p, key, false, nil
}

// optimalSchedule rebuilds the exact optimum's canonical tree for canon
// from its network's table, resolved like a /v1/table request (fetched
// from its fleet owner, or built), so every fill holds the build
// semaphore and one network is filled once however many requests ask
// for it.
func (s *Server) optimalSchedule(ctx context.Context, canon *model.MulticastSet) (*model.Schedule, error) {
	inst, err := exact.Analyze(canon)
	if err != nil {
		return nil, err
	}
	key := networkKey(inst.Set.Latency, inst.Types, inst.Counts)
	t, _, _, _, err := s.resolveTable(ctx, inst, key, 0)
	if err != nil {
		return nil, err
	}
	defer t.Release()
	return t.Schedule(inst)
}

// baseBounds holds the paper's base-model bounds of one canonical
// instance: the strongest lower bound and the Theorem 1 constants.
type baseBounds struct {
	lower  int64
	params bounds.Params
}

func baseBoundsOf(canon *model.MulticastSet) *baseBounds {
	return &baseBounds{lower: lower.Best(canon), params: bounds.ParamsOf(canon)}
}

func theorem1(p bounds.Params) Theorem1 {
	return Theorem1{AlphaMin: p.AlphaMin, AlphaMax: p.AlphaMax, Beta: p.Beta, C: p.C}
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if req.Algo == "" {
		req.Algo = "greedy+leafrev"
	}
	canon, rm, err := resolveInstance(req.ModelParams, req.Set)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	p, key, hit, err := s.planModel(r.Context(), canon, req.Algo, req.Seed, rm, nil)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeSchedule(w, &ScheduleResponse{
		Algo:       p.Algo,
		Key:        key,
		Cache:      cacheLabel(hit),
		RT:         p.RT,
		DT:         p.DT,
		LowerBound: p.LowerBound,
		Theorem1:   theorem1(p.Bound),
		Schedule:   p.ScheduleJSON,
	})
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req CompareRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	canon, rm, err := resolveInstance(req.ModelParams, req.Set)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Optimal && rm.cm != nil {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("\"optimal\" solves the base model only, not model %q", rm.cm.Name()))
		return
	}
	scheds, err := registry.SchedulersFor(req.Seed, rm.cm)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	// The paper's bounds argue about the base objective only; computed
	// once here, they are shared by every plan this compare caches.
	var bd *baseBounds
	if rm.cm == nil {
		bd = baseBoundsOf(canon)
	}
	// The schedulers are independent, so they fan out across cores; each
	// writes only its own slot, and the map is built in registry order
	// after the join.
	plans := make([]*Plan, len(scheds))
	batch.ForEach(0, len(scheds), func(_, i int) {
		if p, _, _, err := s.planModel(r.Context(), canon, scheds[i].Name(), req.Seed, rm, bd); err == nil {
			plans[i] = p
		}
	})
	resp := CompareResponse{RT: make(map[string]int64, len(scheds))}
	for i, p := range plans {
		if p != nil { // a scheduler that cannot handle the instance is simply absent
			resp.RT[scheds[i].Name()] = p.RT
		}
	}
	if len(resp.RT) == 0 {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("no scheduler produced a plan"))
		return
	}
	if req.Optimal {
		resp.Optimal = s.compareOptimal(r.Context(), canon)
	}
	if bd != nil {
		resp.LowerBound = bd.lower
		resp.Theorem1 = theorem1(bd.params)
	}
	writeJSON(w, http.StatusOK, resp)
}

// compareOptimal answers /v1/compare's exact optimum in constant time
// from a table (Theorem 2's closing remark): any cached or spilled table
// covering the set, else the set's own network table, resolved (fetched
// from its fleet owner, or built) like a /v1/table request. It is nil
// when no table can be had: the state space is over the DP's guard, or
// the fleet owner refused.
func (s *Server) compareOptimal(ctx context.Context, canon *model.MulticastSet) *int64 {
	if opt, ok := s.tables.lookupSetAny(canon); ok {
		return &opt
	}
	inst, err := exact.Analyze(canon)
	if err != nil {
		return nil
	}
	key := networkKey(inst.Set.Latency, inst.Types, inst.Counts)
	t, _, _, _, err := s.resolveTable(ctx, inst, key, 0)
	if err != nil {
		return nil
	}
	defer t.Release()
	opt, err := t.Lookup(inst.SourceType, inst.Counts)
	if err != nil {
		return nil
	}
	return &opt
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	var req RenderRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if req.Algo == "" {
		req.Algo = "greedy+leafrev"
	}
	if req.Format == "" {
		req.Format = "tree"
	}
	switch req.Format {
	case "tree", "gantt", "dot", "svg", "json":
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want tree, gantt, dot, svg or json)", req.Format))
		return
	}
	if req.Width > MaxRenderWidth {
		writeError(w, http.StatusBadRequest, fmt.Errorf("width %d exceeds the cap of %d columns", req.Width, MaxRenderWidth))
		return
	}
	canon, rm, err := resolveInstance(req.ModelParams, req.Set)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if rm.cm != nil && req.Format != "json" {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("format %q draws base-model timings; model %q supports format \"json\" only", req.Format, rm.cm.Name()))
		return
	}
	p, _, _, err := s.planModel(r.Context(), canon, req.Algo, req.Seed, rm, nil)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if req.Format == "json" {
		w.Header().Set("Content-Type", "application/json")
		w.Write(p.ScheduleJSON)
		return
	}
	sch, err := trace.UnmarshalJSON(p.ScheduleJSON)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	var body, contentType string
	switch req.Format {
	case "tree":
		body, contentType = trace.Tree(sch), "text/plain; charset=utf-8"
	case "gantt":
		body, contentType = trace.Gantt(sch, req.Width), "text/plain; charset=utf-8"
	case "dot":
		body, contentType = trace.DOT(sch), "text/vnd.graphviz"
	case "svg":
		body, contentType = trace.SVG(sch), "image/svg+xml"
	}
	w.Header().Set("Content-Type", contentType)
	fmt.Fprint(w, body)
}

func (s *Server) handleSweepStart(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	job, err := s.jobs.start(req)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": s.jobs.list()})
}
