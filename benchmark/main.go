// Command benchmark measures hnowd end to end on four seeded closed-loop
// workloads, and in traced mode splits the work into the service's
// layers. See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a run starts hnowd and replays the warm-up;
// setup_s is their median, and the last instance serves the timed list.
const setupRuns = 5

// timedBlocks is how many equal slices the timed list is replayed in.
// Throughput, latency percentiles and server CPU are taken per block and
// reported as the median over blocks, so host noise that lasts less than
// half the timed phase does not move them.
const timedBlocks = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// hnowd children are started from this thread with a parent-death
	// signal; pinning it keeps the signal tied to the process lifetime.
	runtime.LockOSThread()
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the request lists are generated from")
	// The timed lists have fixed per-workload lengths (timedLen), so
	// every run of a seed does identical work; -seconds is accepted for the
	// common benchmark interface and only checked.
	seconds := flag.Int("seconds", 10, "nominal run length; the timed list size is fixed per workload")
	traced := flag.Int("trace", 0, "1: also replay in-process with spans and print per-layer metrics instead of end-to-end ones")
	bin := flag.String("hnowd", "", "path to a built hnowd binary")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory (table spills, spans), emptied first")
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "benchmark: -seconds must be >= 1, got %d\n", *seconds)
		os.Exit(2)
	}
	res, err := run(*name, *seed, *traced == 1, *bin, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, traced bool, bin, work string) (*result, error) {
	if bin == "" {
		return nil, fmt.Errorf("-hnowd is required")
	}
	w, err := newWorkload(name, seed, timedLen[name])
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	c := newChecker(w)
	hr, err := runHTTP(w, c, bin, work)
	if err != nil {
		return nil, err
	}
	res := result{Attempted: hr.attempted, Failed: hr.failed}
	n := float64(len(w.Timed))
	meanMs := 0.0
	for _, l := range hr.lat {
		meanMs += l
	}
	meanMs /= n
	if !traced {
		bs := hr.blocks
		res.Metrics = map[string]metric{
			"throughput_rps":        {blockMedian(bs, func(b block) float64 { return b.rps }), "1/s"},
			"latency_p50_ms":        {blockMedian(bs, func(b block) float64 { return b.p50 }), "ms"},
			"latency_p99_ms":        {blockMedian(bs, func(b block) float64 { return b.p99 }), "ms"},
			"server_cpu_ms_per_req": {blockMedian(bs, func(b block) float64 { return b.cpuPerRq }), "ms"},
			"server_rss_mib":        {float64(hr.hwmKiB) / 1024, "MiB"},
			"setup_s":               {median(hr.setups), "s"},
		}
		fmt.Printf("workload %s seed %d: %d timed requests (latency samples) in %d blocks, %d warm-up requests x %d setups, 1 client, 1 outstanding request\n",
			name, seed, len(w.Timed), timedBlocks, len(w.Warm), setupRuns)
		for i, b := range bs {
			fmt.Printf("  block %d: %.1f req/s, p50 %.3f ms, p99 %.3f ms, server cpu %.3f ms/req\n", i, b.rps, b.p50, b.p99, b.cpuPerRq)
		}
	} else {
		lr, err := runReplays(w, c, work)
		if err != nil {
			return nil, err
		}
		res.Attempted += lr.attempted
		res.Failed += lr.failed
		res.Metrics = layerMetrics(w, hr, lr, meanMs)
		spans := filepath.Join(work, "spans-"+name+".jsonl")
		if err := writeSpans(spans, lr.tr.spans, len(w.Warm)); err != nil {
			return nil, err
		}
		fmt.Printf("workload %s seed %d: per-layer metrics from an in-process replay of %d warm-up + %d timed requests; spans in %s\n",
			name, seed, len(w.Warm), len(w.Timed), spans)
	}
	for _, e := range c.errs {
		fmt.Println("FAILED CHECK:", e)
	}
	res.Correct = res.Failed == 0
	printSummary(res.Metrics)
	return &res, nil
}

// httpResult is the untraced end-to-end measurement of one run.
type httpResult struct {
	setups            []float64 // seconds from exec to the end of warm-up
	lat               []float64 // timed latencies, ms
	blocks            []block
	hwmKiB            int64
	before, after     *vars
	attempted, failed int
}

// block is the measurement of one of the timedBlocks equal slices of the
// timed list.
type block struct {
	rps, p50, p99, cpuPerRq float64
}

// blockMedian is the median over blocks of one block field.
func blockMedian(bs []block, f func(block) float64) float64 {
	xs := make([]float64, len(bs))
	for i, b := range bs {
		xs[i] = f(b)
	}
	return median(xs)
}

// runHTTP starts hnowd setupRuns times, replaying the warm-up list into
// each, keeps the last instance for the timed list, and checks every
// response after the timed section.
func runHTTP(w *workload, c *checker, bin, work string) (*httpResult, error) {
	// The client keeps one request outstanding, so one P is all it needs;
	// more would let its runtime (GC workers above all) take the second
	// core from hnowd in the middle of a request.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	hr := &httpResult{lat: make([]float64, len(w.Timed))}
	var srv *hnowd
	for s := 0; s < setupRuns; s++ {
		var err error
		srv, err = startHnowd(bin, w, filepath.Join(work, fmt.Sprintf("hnowd-tables-%d", s)))
		if err != nil {
			return nil, err
		}
		warm := newResponses(len(w.Warm))
		srv.replay(w.Warm, warm, 0, nil)
		hr.setups = append(hr.setups, time.Since(srv.start).Seconds())
		hr.attempted += len(w.Warm)
		hr.failed += c.check(w.Warm, warm)
		if s < setupRuns-1 {
			srv.stop()
		}
	}
	defer srv.stop()
	var err error
	if hr.before, err = srv.scrape(); err != nil {
		return nil, err
	}
	timed := newResponses(len(w.Timed))
	n := len(w.Timed)
	for b := 0; b < timedBlocks; b++ {
		lo, hi := b*n/timedBlocks, (b+1)*n/timedBlocks
		cpu0, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv.replay(w.Timed[lo:hi], timed, lo, hr.lat[lo:hi])
		wall := time.Since(t0)
		cpu1, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		lat := append([]float64(nil), hr.lat[lo:hi]...)
		req := float64(hi - lo)
		hr.blocks = append(hr.blocks, block{
			rps:      req / wall.Seconds(),
			p50:      percentile(lat, 0.50),
			p99:      percentile(lat, 0.99),
			cpuPerRq: ms(cpu1-cpu0) / req,
		})
	}
	if hr.after, err = srv.scrape(); err != nil {
		return nil, err
	}
	if hr.hwmKiB, err = procHWM(srv.pid()); err != nil {
		return nil, err
	}
	hr.attempted += len(w.Timed)
	hr.failed += c.check(w.Timed, timed)
	return hr, nil
}

// replayResult holds the in-process replays: an untraced one for the
// baseline wall time and a traced one for the spans.
type replayResult struct {
	tr                      *tracer
	untracedWall, traceWall time.Duration
	evalCols                int64
	attempted, failed       int
}

func runReplays(w *workload, c *checker, work string) (*replayResult, error) {
	lr := &replayResult{}
	for _, on := range []bool{false, true} {
		dir := filepath.Join(work, fmt.Sprintf("replay-tables-%v", on))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		tr := &tracer{on: on}
		p := newReplayer(tr, dir, w.TableMemMiB)
		warm, timed := newResponses(len(w.Warm)), newResponses(len(w.Timed))
		runtime.GC()
		tr.t0 = time.Now()
		p.run(w.Warm, 0, warm)
		runtime.GC()
		t0 := time.Now()
		p.run(w.Timed, len(w.Warm), timed)
		wall := time.Since(t0)
		p.close()
		lr.attempted += len(w.Warm) + len(w.Timed)
		lr.failed += c.check(w.Warm, warm) + c.check(w.Timed, timed)
		if on {
			lr.tr, lr.traceWall, lr.evalCols = tr, wall, p.evalCols
		} else {
			lr.untracedWall = wall
		}
	}
	return lr, nil
}

// layerMetrics derives the per-layer metrics: span sums from the traced
// replay (per timed request, or per call over warm-up and timed lists for
// layers plan-hot only reaches during warm-up), and /debug/vars deltas
// around the untraced timed phase.
func layerMetrics(w *workload, hr *httpResult, lr *replayResult, httpMeanMs float64) map[string]metric {
	n := float64(len(w.Timed))
	timedSum := map[string]time.Duration{}
	allSum := map[string]time.Duration{}
	allCount := map[string]int{}
	var covered time.Duration
	for _, s := range lr.tr.spans {
		d := s.End - s.Start
		allSum[s.Name] += d
		allCount[s.Name]++
		if s.Req >= len(w.Warm) {
			timedSum[s.Name] += d
			if s.Parent >= 0 {
				covered += d
			}
		}
	}
	perReq := func(name string) float64 { return ms(timedSum[name]) / n }
	perCall := func(name string) time.Duration {
		if allCount[name] == 0 {
			return 0
		}
		return allSum[name] / time.Duration(allCount[name])
	}
	var sched time.Duration
	for name, d := range timedSum {
		if strings.HasPrefix(name, "sched.") {
			sched += d
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	delta := func(k string) float64 { return float64(hr.after.ints[k] - hr.before.ints[k]) }
	tableServed := delta("hnowd.table.hits") + delta("hnowd.table.disk_hits") + delta("hnowd.table.builds")
	m := map[string]metric{
		"decode.ms_per_req":                {perReq("decode"), "ms"},
		"canon.ms_per_req":                 {perReq("canon"), "ms"},
		"plan_cache.ms_per_req":            {perReq("plan_cache"), "ms"},
		"encode.ms_per_req":                {perReq("encode"), "ms"},
		"plan_cache.hit_ratio":             {ratio(delta("hnowd.cache.hits"), delta("hnowd.cache.hits")+delta("hnowd.cache.misses")), "ratio"},
		"http.overhead_ms_per_req":         {httpMeanMs - ms(lr.untracedWall)/n, "ms"},
		"sched.ms_per_req":                 {ms(sched) / n, "ms"},
		"sched.greedy_leafrev.ms_per_call": {ms(perCall("sched.greedy+leafrev")), "ms"},
		"sched.local_search.ms_per_call":   {ms(perCall("sched.local-search")), "ms"},
		"sched.annealing.ms_per_call":      {ms(perCall("sched.annealing")), "ms"},
		"sched.beam_search.ms_per_call":    {ms(perCall("sched.beam-search")), "ms"},
		"eval.soa.us_per_call":             {us(perCall("eval.soa")), "us"},
		"eval.generic.us_per_call":         {us(perCall("eval.generic")), "us"},
		"bounds.ms_per_req":                {perReq("bounds"), "ms"},
		"table.build_ms_per_build":         {ms(perCall("table.build")), "ms"},
		"table.eval_columns_per_build":     {ratio(float64(lr.evalCols), float64(allCount["table.build"])), "count"},
		"table.spill_ms_per_write":         {ms(perCall("table.spill")), "ms"},
		"table.load_ms_per_load":           {ms(perCall("table.load")), "ms"},
		"table.lookup_us_per_call":         {us(perCall("table.lookup")), "us"},
		"table.mem_hit_ratio":              {ratio(delta("hnowd.table.hits"), tableServed), "ratio"},
		"table.disk_hit_ratio":             {ratio(delta("hnowd.table.disk_hits"), tableServed), "ratio"},
		"table.evictions":                  {delta("hnowd.table.evictions"), "count"},
		"table.resident_mib":               {float64(hr.after.ints["hnowd.table.mapped_bytes"]+hr.after.ints["hnowd.table.heap_bytes"]) / (1 << 20), "MiB"},
		"runtime.alloc_kib_per_req":        {float64(hr.after.mem.TotalAlloc-hr.before.mem.TotalAlloc) / 1024 / n, "KiB"},
		"runtime.mallocs_per_req":          {float64(hr.after.mem.Mallocs-hr.before.mem.Mallocs) / n, "count"},
		"runtime.gc_cycles_per_1k_req":     {float64(hr.after.mem.NumGC-hr.before.mem.NumGC) * 1000 / n, "count"},
		"runtime.gc_pause_ms_per_req":      {float64(hr.after.mem.PauseTotalNs-hr.before.mem.PauseTotalNs) / 1e6 / n, "ms"},
		"trace.coverage":                   {ratio(float64(covered), float64(lr.traceWall)), "ratio"},
		"trace.overhead_pct":               {100 * ratio(float64(lr.traceWall-lr.untracedWall), float64(lr.untracedWall)), "%"},
	}
	return m
}

func printSummary(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
