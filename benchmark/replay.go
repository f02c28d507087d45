package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/bounds"
	"repro/internal/exact"
	"repro/internal/lower"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/trace"
)

// span is one timed layer call of the in-process replay. Times are
// nanoseconds since the replay started; Parent is the index of the
// request's root span (-1 for a root).
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
	Req    int
}

// tracer keeps spans in memory. When off, begin and end do nothing, so
// the same replay code gives the untraced baseline.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	req   int
	root  int
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: t.root, Req: t.req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = time.Since(t.t0)
	}
}

func (t *tracer) beginRequest(id int) {
	t.req, t.root = id, -1
	t.root = t.begin("request")
}

func (t *tracer) endRequest() { t.end(t.root) }

// schedSpan and evalSpan name scheduler and engine spans without
// building strings on the replay path.
var schedSpan = func() map[string]string {
	m := map[string]string{}
	for _, name := range registry.Names() {
		m[name] = "sched." + name
	}
	return m
}()

// replayer serves requests in-process through the same public layer
// functions hnowd's handlers call, in the same order, with one span per
// layer call. Its table memory mirrors hnowd's byte-budgeted LRU over a
// spill directory.
type replayer struct {
	tr       *tracer
	cache    *service.Cache
	eng      model.Engine
	buf      bytes.Buffer
	dir      string
	maxBytes int64
	tables   []memTable // front = most recently used
	bytes    int64
	spilled  map[string]string // network key -> spill file
	// evalCols sums DP.EvalColumns over the replay's table builds.
	evalCols int64
}

type memTable struct {
	key   string
	table *exact.Table
}

func newReplayer(tr *tracer, dir string, tableMemMiB int64) *replayer {
	return &replayer{
		tr:       tr,
		cache:    service.NewCache(4096, 16),
		dir:      dir,
		maxBytes: tableMemMiB << 20,
		spilled:  map[string]string{},
	}
}

// close releases every table the replay still holds.
func (p *replayer) close() {
	for _, e := range p.tables {
		e.table.Close()
	}
	p.tables = nil
}

// run replays reqs (request ids starting at base) into res.
func (p *replayer) run(reqs []request, base int, res *responses) {
	for i := range reqs {
		p.tr.beginRequest(base + i)
		body, err := p.serve(&reqs[i])
		p.tr.endRequest()
		status := http.StatusOK
		if err != nil {
			status, body = 0, []byte(err.Error())
		}
		res.add(i, status, body)
	}
}

func (p *replayer) serve(r *request) ([]byte, error) {
	switch r.Kind {
	case kindSchedule:
		return p.schedule(r.Body)
	case kindCompare:
		return p.compare(r.Body)
	default:
		return p.table(r.Body)
	}
}

func (p *replayer) encode(v any) ([]byte, error) {
	s := p.tr.begin("encode")
	defer p.tr.end(s)
	p.buf.Reset()
	enc := json.NewEncoder(&p.buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return p.buf.Bytes(), err
}

// plan mirrors the service's planModel: key, plan-cache lookup, then on a
// miss schedule, encode, score on the engine, bound and insert.
func (p *replayer) plan(canon *model.MulticastSet, algo string, seed int64, cm model.CostModel, mkey string) (*service.Plan, string, bool, error) {
	s := p.tr.begin("canon")
	if !registry.Seeded(algo) {
		seed = 0
	}
	key := service.KeyCanonical(canon, algo, seed)
	if mkey != "" {
		key = "m=" + mkey + "|" + key
	}
	p.tr.end(s)
	s = p.tr.begin("plan_cache")
	pl, ok := p.cache.Get(key)
	p.tr.end(s)
	if ok {
		return pl, key, true, nil
	}
	s = p.tr.begin(schedSpan[algo])
	sched, err := registry.LookupFor(algo, seed, cm)
	var sch *model.Schedule
	if err == nil {
		sch, err = sched.Schedule(canon)
	}
	p.tr.end(s)
	if err != nil {
		return nil, key, false, err
	}
	if cm != nil {
		sch.BindModel(cm)
	}
	s = p.tr.begin("encode")
	js, err := trace.MarshalJSON(sch)
	p.tr.end(s)
	if err != nil {
		return nil, key, false, err
	}
	if cm == nil {
		s = p.tr.begin("eval.soa")
	} else {
		s = p.tr.begin("eval.generic")
	}
	p.eng.Attach(sch)
	pl = &service.Plan{Algo: algo, ScheduleJSON: js, RT: p.eng.RT(), DT: p.eng.DT()}
	p.tr.end(s)
	if cm == nil {
		s = p.tr.begin("bounds")
		pl.LowerBound = lower.Best(canon)
		pl.Bound = bounds.ParamsOf(canon)
		p.tr.end(s)
	}
	s = p.tr.begin("plan_cache")
	p.cache.Put(key, pl)
	p.tr.end(s)
	return pl, key, false, nil
}

func theorem1(b bounds.Params) service.Theorem1 {
	return service.Theorem1{AlphaMin: b.AlphaMin, AlphaMax: b.AlphaMax, Beta: b.Beta, C: b.C}
}

func (p *replayer) decodeSet(body []byte, req any, set func() json.RawMessage) (*model.MulticastSet, error) {
	s := p.tr.begin("decode")
	defer p.tr.end(s)
	if err := json.Unmarshal(body, req); err != nil {
		return nil, err
	}
	return trace.UnmarshalSetJSON(set())
}

func (p *replayer) canonicalize(set *model.MulticastSet) *model.MulticastSet {
	s := p.tr.begin("canon")
	defer p.tr.end(s)
	return service.Canonicalize(set)
}

func (p *replayer) schedule(body []byte) ([]byte, error) {
	var req service.ScheduleRequest
	set, err := p.decodeSet(body, &req, func() json.RawMessage { return req.Set })
	if err != nil {
		return nil, err
	}
	if req.Algo == "" {
		req.Algo = "greedy+leafrev"
	}
	canon := p.canonicalize(set)
	pl, key, hit, err := p.plan(canon, req.Algo, req.Seed, nil, "")
	if err != nil {
		return nil, err
	}
	cache := "miss"
	if hit {
		cache = "hit"
	}
	return p.encode(service.ScheduleResponse{
		Algo: pl.Algo, Key: key, Cache: cache, RT: pl.RT, DT: pl.DT,
		LowerBound: pl.LowerBound, Theorem1: theorem1(pl.Bound), Schedule: pl.ScheduleJSON,
	})
}

func (p *replayer) compare(body []byte) ([]byte, error) {
	var req service.CompareRequest
	set, err := p.decodeSet(body, &req, func() json.RawMessage { return req.Set })
	if err != nil {
		return nil, err
	}
	canon := p.canonicalize(set)
	cm := costModel(req.Model, req.Segments)
	mkey := req.Model
	if req.Model == "pipeline" {
		mkey = "pipe:" + strconv.Itoa(req.Segments)
	}
	s := p.tr.begin("sched.registry")
	scheds, err := registry.SchedulersFor(req.Seed, cm)
	p.tr.end(s)
	if err != nil {
		return nil, err
	}
	resp := service.CompareResponse{RT: map[string]int64{}}
	for _, sc := range scheds {
		pl, _, _, err := p.plan(canon, sc.Name(), req.Seed, cm, mkey)
		if err != nil {
			continue
		}
		resp.RT[sc.Name()] = pl.RT
	}
	if cm == nil {
		s = p.tr.begin("bounds")
		resp.LowerBound = lower.Best(canon)
		resp.Theorem1 = theorem1(bounds.ParamsOf(canon))
		p.tr.end(s)
	}
	return p.encode(resp)
}

// table mirrors handleTable: memory, then the spill (mmap load), then a
// DP build that is cached and spilled; then the optimum lookup.
func (p *replayer) table(body []byte) ([]byte, error) {
	var req service.TableRequest
	set, err := p.decodeSet(body, &req, func() json.RawMessage { return req.Set })
	if err != nil {
		return nil, err
	}
	s := p.tr.begin("canon")
	inst, err := exact.Analyze(service.Canonicalize(set))
	var key string
	if err == nil {
		key, err = service.NetworkKey(inst.Set)
	}
	p.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = p.tr.begin("table.cache")
	t := p.getTable(key)
	p.tr.end(s)
	source, buildTime := service.TableCacheHit, time.Duration(0)
	if t == nil {
		if path, ok := p.spilled[key]; ok {
			source = service.TableCacheDisk
			s = p.tr.begin("table.load")
			t, err = exact.OpenTableMapped(path)
			p.tr.end(s)
			if err != nil {
				return nil, err
			}
			s = p.tr.begin("table.cache")
			p.putTable(key, t)
			p.tr.end(s)
		} else {
			source = service.TableCacheMiss
			t0 := time.Now()
			s = p.tr.begin("table.build")
			var dp *exact.DP
			if dp, err = inst.NewDP(); err == nil {
				dp.FillAllParallel(0)
				t, err = dp.FinishTable()
			}
			p.tr.end(s)
			if err != nil {
				return nil, err
			}
			buildTime = time.Since(t0)
			p.evalCols += dp.EvalColumns()
			s = p.tr.begin("table.cache")
			p.putTable(key, t)
			p.tr.end(s)
			path := filepath.Join(p.dir, strconv.Itoa(len(p.spilled))+".hnowtbl")
			s = p.tr.begin("table.spill")
			err = exact.WriteTableFile(path, t)
			p.tr.end(s)
			if err != nil {
				return nil, err
			}
			p.spilled[key] = path
		}
	}
	s = p.tr.begin("table.lookup")
	opt, err := t.Lookup(inst.SourceType, inst.Counts)
	p.tr.end(s)
	if err != nil {
		return nil, err
	}
	return p.encode(service.TableResponse{
		Key: key, Cache: source, K: t.K(), States: t.States(), Counts: t.Counts(),
		OptimalRT: opt, BuildMillis: buildTime.Milliseconds(), Mapped: t.Mapped(), SizeBytes: t.SizeBytes(),
	})
}

func (p *replayer) getTable(key string) *exact.Table {
	for i, e := range p.tables {
		if e.key == key {
			copy(p.tables[1:i+1], p.tables[:i])
			p.tables[0] = e
			return e.table
		}
	}
	return nil
}

// putTable inserts at the front and evicts least recently used tables
// while over budget, always keeping the newest.
func (p *replayer) putTable(key string, t *exact.Table) {
	p.tables = append([]memTable{{key, t}}, p.tables...)
	p.bytes += t.SizeBytes()
	for len(p.tables) > 1 && p.bytes > p.maxBytes {
		last := p.tables[len(p.tables)-1]
		p.tables = p.tables[:len(p.tables)-1]
		p.bytes -= last.table.SizeBytes()
		last.table.Close()
	}
}

// writeSpans writes the spans as JSON lines: id, name, start and end in
// ns since the replay began, parent span id (-1 for a request root),
// request id, and whether the request was in the warm-up list.
func writeSpans(path string, spans []span, warm int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, s := range spans {
		phase := "timed"
		if s.Req < warm {
			phase = "warm"
		}
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d,"phase":%q}`+"\n",
			i, s.Name, int64(s.Start), int64(s.End), s.Parent, s.Req, phase)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
