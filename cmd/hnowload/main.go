// Command hnowload is an open-loop load generator for hnowd fleets. It
// drives /v1/table against 1..n-replica deployments with a zipf-popular
// key population and a warm/cold mix, and emits BENCH_service.json with
// per-run error counts, cache-hit rate, the fleet counters and — the
// number the fleet design exists to minimize — duplicate DP build
// counts. Latency is measured by the benchmark/ harness, not here.
//
// In-process mode spins fleets up itself (real HTTP over loopback, one
// spill dir per replica) and compares sizes in one run:
//
//	hnowload -fleets 1,3 -rate 50 -duration 5s -keys 12 -out BENCH_service.json
//
// External mode drives an already-running deployment and reads counters
// from /debug/vars:
//
//	hnowload -targets http://h1:8080,http://h2:8080 -rate 200 -duration 30s
//
// -validate checks an existing BENCH_service.json against the schema;
// -smoke additionally asserts the run was healthy (no errors, and for
// multi-replica fleets at most -max-dup-builds duplicate builds), which
// is what CI runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/trace"
)

// benchFile is the BENCH_service.json schema.
type benchFile struct {
	Bench  string      `json:"bench"` // always "hnowload"
	Config benchConfig `json:"config"`
	Runs   []runResult `json:"runs"`
}

type benchConfig struct {
	Rate      float64 `json:"rate"`
	DurationS float64 `json:"duration_s"`
	Keys      int     `json:"keys"`
	Zipf      float64 `json:"zipf"`
	Warm      float64 `json:"warm"`
	N         int     `json:"n"`
	Kinds     int     `json:"kinds"`
	Latency   int64   `json:"latency"`
	Seed      int64   `json:"seed"`
	Route     string  `json:"route"`
}

type runResult struct {
	Name     string `json:"name"`
	Replicas int    `json:"replicas"`
	Requests int    `json:"requests"`
	Errors   int    `json:"errors"`
	// HitRate is the fraction of successful requests answered without a
	// DP build on the serving replica (memory, disk or peer fetch).
	HitRate float64 `json:"hit_rate"`
	// Builds is the fleet-wide DP build count; DupBuilds is how many of
	// those were redundant (builds minus distinct keys touched) — 0 means
	// ownership routing did its job.
	Builds    int64              `json:"builds"`
	DupBuilds int64              `json:"dup_builds"`
	Fleet     service.FleetStats `json:"fleet"`
}

func main() {
	fleets := flag.String("fleets", "1,3", "comma-separated fleet sizes to spawn in-process and compare")
	targets := flag.String("targets", "", "drive these external replica URLs instead of spawning fleets (counters read from /debug/vars)")
	rate := flag.Float64("rate", 50, "open-loop arrival rate, requests/second")
	duration := flag.Duration("duration", 3*time.Second, "timed load window per run")
	keys := flag.Int("keys", 8, "distinct network keys in the population")
	zipfS := flag.Float64("zipf", 1.2, "zipf skew of key popularity (<=1 = uniform)")
	warm := flag.Float64("warm", 0.5, "fraction of keys pre-warmed before the timed window")
	n := flag.Int("n", 10, "destinations per generated network")
	kinds := flag.Int("kinds", 2, "workstation types per generated network")
	latency := flag.Int64("latency", 10, "network latency L of generated networks")
	seed := flag.Int64("seed", 1, "base RNG seed for network generation and key draws")
	route := flag.String("route", "owner", "request routing: owner (hash to the key's owner) or spray (round-robin)")
	out := flag.String("out", "BENCH_service.json", "output path")
	validate := flag.String("validate", "", "validate an existing BENCH_service.json and exit")
	smoke := flag.Bool("smoke", false, "fail unless every run is error-free and multi-replica runs stay within -max-dup-builds")
	maxDup := flag.Int64("max-dup-builds", 0, "with -smoke: maximum tolerated duplicate builds per multi-replica run")
	flag.Parse()

	if *validate != "" {
		if err := validateFile(*validate); err != nil {
			log.Fatalf("hnowload: %s: %v", *validate, err)
		}
		fmt.Printf("hnowload: %s: valid\n", *validate)
		return
	}
	if *route != "owner" && *route != "spray" {
		log.Fatalf("hnowload: -route must be owner or spray, got %q", *route)
	}

	cfg := benchConfig{
		Rate: *rate, DurationS: duration.Seconds(), Keys: *keys, Zipf: *zipfS,
		Warm: *warm, N: *n, Kinds: *kinds, Latency: *latency, Seed: *seed, Route: *route,
	}
	pop, err := generatePopulation(cfg)
	if err != nil {
		log.Fatalf("hnowload: generating key population: %v", err)
	}

	var runs []runResult
	if *targets != "" {
		urls := splitList(*targets)
		res, err := driveExternal(urls, cfg, pop)
		if err != nil {
			log.Fatalf("hnowload: %v", err)
		}
		runs = append(runs, res)
	} else {
		for _, f := range splitList(*fleets) {
			size, err := strconv.Atoi(f)
			if err != nil || size < 1 {
				log.Fatalf("hnowload: bad fleet size %q", f)
			}
			res, err := driveInProcess(size, cfg, pop)
			if err != nil {
				log.Fatalf("hnowload: fleet-%d: %v", size, err)
			}
			runs = append(runs, res)
		}
	}

	bench := benchFile{Bench: "hnowload", Config: cfg, Runs: runs}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatalf("hnowload: writing %s: %v", *out, err)
	}
	for _, r := range runs {
		log.Printf("hnowload: %s: %d req, %d err, hit=%.0f%%, builds=%d dup=%d, fleet=%+v",
			r.Name, r.Requests, r.Errors, 100*r.HitRate, r.Builds, r.DupBuilds, r.Fleet)
	}
	log.Printf("hnowload: wrote %s (%d runs)", *out, len(runs))

	if *smoke {
		if err := smokeCheck(runs, cfg, *maxDup); err != nil {
			log.Fatalf("hnowload: smoke check failed: %v", err)
		}
		log.Printf("hnowload: smoke check passed")
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// population is the key universe one load run draws from.
type population struct {
	sets []*model.MulticastSet
	raw  []json.RawMessage // pre-marshaled, shared across requests
	keys []string          // canonical network keys, index-aligned
}

// generatePopulation draws cfg.Keys networks with distinct canonical
// keys (different seeds can collide on small configs, so generation
// skips duplicates).
func generatePopulation(cfg benchConfig) (*population, error) {
	p := &population{}
	seen := make(map[string]bool)
	for s := cfg.Seed; len(p.sets) < cfg.Keys; s++ {
		if s-cfg.Seed > int64(cfg.Keys)*100 {
			return nil, fmt.Errorf("could not draw %d distinct keys in %d attempts", cfg.Keys, s-cfg.Seed)
		}
		set, err := cluster.Generate(cluster.GenConfig{
			N: cfg.N, K: cfg.Kinds, Latency: cfg.Latency, Seed: s, MaxSend: 8,
		})
		if err != nil {
			return nil, err
		}
		key, err := service.NetworkKey(set)
		if err != nil {
			return nil, err
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		raw, err := trace.MarshalSetJSON(set)
		if err != nil {
			return nil, err
		}
		p.sets = append(p.sets, set)
		p.raw = append(p.raw, raw)
		p.keys = append(p.keys, key)
	}
	return p, nil
}

// keyPicker returns the zipf (or uniform) key-index draw for one run.
func keyPicker(cfg benchConfig, nkeys int) func() int {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Zipf > 1 && nkeys > 1 {
		z := rand.NewZipf(rng, cfg.Zipf, 1, uint64(nkeys-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(nkeys) }
}

// pickTarget maps a request to a replica client: the key's ring owner in
// owner mode, round-robin in spray mode.
func pickTarget(route string, ring *fleet.Ring, clients map[string]*client.Client, urls []string, key string, i int) *client.Client {
	if route == "owner" && ring.Size() > 0 {
		if c := clients[ring.Owner(key)]; c != nil {
			return c
		}
	}
	return clients[fleet.Normalize(urls[i%len(urls)])]
}

// sample is one request's outcome.
type sample struct {
	key   int
	cache string
	err   error
}

// driveLoad runs the warm phase and the open-loop timed window against
// the replicas at urls, returning per-request samples.
func driveLoad(urls []string, cfg benchConfig, pop *population) []sample {
	ring := fleet.NewRing(urls)
	clients := make(map[string]*client.Client, len(urls))
	httpc := &http.Client{Timeout: 2 * time.Minute}
	for _, u := range urls {
		clients[fleet.Normalize(u)] = &client.Client{BaseURL: fleet.Normalize(u), HTTPClient: httpc}
	}
	ctx := context.Background()

	// Warm phase: the most popular cfg.Warm fraction of keys, one
	// blocking request each, not counted in the timed samples.
	warmCount := int(cfg.Warm * float64(len(pop.sets)))
	for i := 0; i < warmCount; i++ {
		c := pickTarget(cfg.Route, ring, clients, urls, pop.keys[i], i)
		if _, err := c.WarmTable(ctx, pop.sets[i], 0); err != nil {
			log.Printf("hnowload: warm key %d: %v", i, err)
		}
	}

	// Timed window: open-loop fixed-interval arrivals. Arrival times are
	// fixed up front (start + i/rate) so a slow server cannot slow the
	// arrival process down — that's the open-loop property.
	total := int(cfg.Rate * cfg.DurationS)
	if total < 1 {
		total = 1
	}
	pick := keyPicker(cfg, len(pop.sets))
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	samples := make([]sample, total)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
		idx := pick()
		c := pickTarget(cfg.Route, ring, clients, urls, pop.keys[idx], i)
		wg.Add(1)
		go func(i, idx int, c *client.Client) {
			defer wg.Done()
			resp, err := c.WarmTable(ctx, pop.sets[idx], 0)
			s := sample{key: idx, err: err}
			if err == nil {
				s.cache = resp.Cache
			}
			samples[i] = s
		}(i, idx, c)
	}
	wg.Wait()
	return samples
}

// summarize folds samples plus fleet-wide counters into a runResult.
func summarize(name string, replicas int, samples []sample, warmTouched int, builds int64, fs service.FleetStats) runResult {
	res := runResult{Name: name, Replicas: replicas, Requests: len(samples), Builds: builds, Fleet: fs}
	touched := make(map[int]bool, warmTouched)
	for i := 0; i < warmTouched; i++ {
		touched[i] = true
	}
	served := 0
	for _, s := range samples {
		if s.err != nil {
			res.Errors++
			continue
		}
		touched[s.key] = true
		served++
		if s.cache != service.TableCacheMiss {
			res.HitRate++ // numerator; divided below
		}
	}
	if served > 0 {
		res.HitRate /= float64(served)
	}
	res.DupBuilds = builds - int64(len(touched))
	return res
}

// driveInProcess spawns a size-replica fleet over loopback listeners,
// runs the load, and reads counters straight off the Server values.
func driveInProcess(size int, cfg benchConfig, pop *population) (runResult, error) {
	lns := make([]net.Listener, size)
	urls := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return runResult{}, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	svcs := make([]*service.Server, size)
	httpSrvs := make([]*http.Server, size)
	for i := range lns {
		dir, err := os.MkdirTemp("", "hnowload-spill-*")
		if err != nil {
			return runResult{}, err
		}
		defer os.RemoveAll(dir)
		sc := service.Config{TableDir: dir}
		if size > 1 {
			sc.Self = urls[i]
			sc.Peers = urls
		}
		svcs[i] = service.New(sc)
		httpSrvs[i] = &http.Server{Handler: svcs[i].Handler()}
		go httpSrvs[i].Serve(lns[i])
	}
	defer func() {
		for i := range svcs {
			httpSrvs[i].Close()
			svcs[i].Close()
		}
	}()

	samples := driveLoad(urls, cfg, pop)

	var builds int64
	var fs service.FleetStats
	for _, s := range svcs {
		builds += s.TableBuilds()
		st := s.FleetStats()
		fs.OwnerHits += st.OwnerHits
		fs.PeerFetches += st.PeerFetches
		fs.FallbackBuilds += st.FallbackBuilds
		fs.PeerErrors += st.PeerErrors
	}
	warmCount := int(cfg.Warm * float64(len(pop.sets)))
	return summarize(fmt.Sprintf("fleet-%d", size), size, samples, warmCount, builds, fs), nil
}

// driveExternal runs the load against already-running replicas and
// derives counters from before/after /debug/vars snapshots.
func driveExternal(urls []string, cfg benchConfig, pop *population) (runResult, error) {
	before, err := scrapeAll(urls)
	if err != nil {
		return runResult{}, err
	}
	samples := driveLoad(urls, cfg, pop)
	after, err := scrapeAll(urls)
	if err != nil {
		return runResult{}, err
	}
	delta := func(name string) int64 { return after[name] - before[name] }
	fs := service.FleetStats{
		OwnerHits:      delta("hnowd.fleet.owner_hits"),
		PeerFetches:    delta("hnowd.fleet.peer_fetches"),
		FallbackBuilds: delta("hnowd.fleet.fallback_builds"),
		PeerErrors:     delta("hnowd.fleet.peer_errors"),
	}
	warmCount := int(cfg.Warm * float64(len(pop.sets)))
	res := summarize("targets", len(urls), samples, warmCount, delta("hnowd.table.builds"), fs)
	return res, nil
}

// scrapeAll sums integer expvars across every replica's /debug/vars.
func scrapeAll(urls []string) (map[string]int64, error) {
	sum := make(map[string]int64)
	for _, u := range urls {
		resp, err := http.Get(fleet.Normalize(u) + "/debug/vars")
		if err != nil {
			return nil, err
		}
		var vars map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&vars)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/debug/vars: %w", u, err)
		}
		for k, v := range vars {
			var n int64
			if json.Unmarshal(v, &n) == nil {
				sum[k] += n
			}
		}
	}
	return sum, nil
}

// validateFile checks a BENCH_service.json against the schema hnowload
// emits; CI runs this against the artifact it just produced.
func validateFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b benchFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return fmt.Errorf("schema: %w", err)
	}
	if b.Bench != "hnowload" {
		return fmt.Errorf("bench = %q, want \"hnowload\"", b.Bench)
	}
	if len(b.Runs) == 0 {
		return fmt.Errorf("no runs")
	}
	if b.Config.Rate <= 0 || b.Config.DurationS <= 0 || b.Config.Keys <= 0 {
		return fmt.Errorf("implausible config: %+v", b.Config)
	}
	for _, r := range b.Runs {
		switch {
		case r.Name == "":
			return fmt.Errorf("run with empty name")
		case r.Replicas < 1:
			return fmt.Errorf("%s: replicas = %d", r.Name, r.Replicas)
		case r.Requests <= 0:
			return fmt.Errorf("%s: requests = %d", r.Name, r.Requests)
		case r.Errors < 0 || r.Errors > r.Requests:
			return fmt.Errorf("%s: errors = %d of %d", r.Name, r.Errors, r.Requests)
		case r.HitRate < 0 || r.HitRate > 1:
			return fmt.Errorf("%s: hit_rate = %g", r.Name, r.HitRate)
		case r.Builds < 0:
			return fmt.Errorf("%s: builds = %d", r.Name, r.Builds)
		}
	}
	return nil
}

// smokeCheck enforces the CI gate: error-free runs, and for multi-replica
// fleets, ownership routing held (duplicate builds within bounds, no
// degraded paths taken). In spray mode requests land on arbitrary
// replicas, so at least one table must demonstrably have been served
// peer-to-peer.
func smokeCheck(runs []runResult, cfg benchConfig, maxDup int64) error {
	for _, r := range runs {
		if r.Errors > 0 {
			return fmt.Errorf("%s: %d request errors", r.Name, r.Errors)
		}
		if r.Replicas > 1 {
			if r.DupBuilds > maxDup {
				return fmt.Errorf("%s: %d duplicate builds (max %d)", r.Name, r.DupBuilds, maxDup)
			}
			if r.Fleet.OwnerHits+r.Fleet.PeerFetches == 0 {
				return fmt.Errorf("%s: no fleet traffic at all (owner_hits+peer_fetches = 0)", r.Name)
			}
			if cfg.Route == "spray" && r.Fleet.PeerFetches == 0 {
				return fmt.Errorf("%s: spray routing produced no peer-to-peer table fetches", r.Name)
			}
			if r.Fleet.PeerErrors > 0 || r.Fleet.FallbackBuilds > 0 {
				return fmt.Errorf("%s: degraded fleet paths taken: %+v", r.Name, r.Fleet)
			}
		}
	}
	return nil
}
