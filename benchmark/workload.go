package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/trace"
)

// kind is the shape of one request, which decides how its response is
// checked and how the in-process replay serves it.
type kind uint8

const (
	kindSchedule   kind = iota // POST /v1/schedule
	kindCompare                // POST /v1/compare
	kindTableBuild             // POST /v1/table of a network not built before
	kindTableRead              // POST /v1/table of a network built earlier
)

var kindPath = [...]string{
	kindSchedule:   "/v1/schedule",
	kindCompare:    "/v1/compare",
	kindTableBuild: "/v1/table",
	kindTableRead:  "/v1/table",
}

// request is one pre-generated request plus what its response must show.
type request struct {
	Kind kind
	Body []byte
	Net  int    // index into workload.Canon
	Algo string // kindSchedule: registry algorithm
	// Model and Segments select the cost model of a kindCompare request
	// ("" is the base model); Seed is its scheduler seed.
	Model    string
	Segments int
	Seed     int64
	// Hit is the plan-cache outcome a kindSchedule response must report.
	Hit bool
}

// workload is the full, seeded input of one run: a warm-up list that is
// replayed before timing (and is what setup_s measures) and the timed
// list. Both are replayed in order, one request outstanding at a time.
type workload struct {
	Name  string
	Canon []*model.MulticastSet // canonical networks, indexed by request.Net
	Warm  []request
	Timed []request
	// TableMemMiB, when > 0, runs hnowd with a table spill directory and
	// this table memory budget.
	TableMemMiB int64
	seen        map[string]bool
}

// workloadNames lists the workloads; timedLen gives each one's timed list
// length. A run replays exactly that many requests whatever the wall time
// turns out to be, so every run of a seed does identical work. The counts
// make one timed phase last 10 to 15 seconds with one client on a 2-core
// x86 host; each is a multiple of timedBlocks, and tables' blocks hold
// whole rounds.
var workloadNames = []string{"plan-hot", "plan-cold", "plan-models", "tables"}

var timedLen = map[string]int{
	"plan-hot":    30000,
	"plan-cold":   1500,
	"plan-models": 2000,
	"tables":      1000,
}

const (
	hotNets    = 256 // plan-hot working set: 256 networks × 4 algorithms
	planN      = 64  // destinations per plan-hot and plan-cold network
	modelsN    = 32  // destinations per plan-models network
	tableN     = 48  // destinations per tables network
	netTypes   = 3   // workstation types per network (k)
	coldWarm   = 40  // warm-up compares of plan-cold / plan-models
	tableWarm  = 12  // warm-up rounds of tables
	tableReads = 3   // re-reads per tables round
	tableMemMB = 4   // hnowd -table-mem for tables: fewer MiB than the run's tables
)

// hotAlgos are the plan-hot algorithms; all are deterministic, so each
// (network, algorithm) pair is one plan-cache entry.
var hotAlgos = []string{"greedy+leafrev", "greedy", "local-search", "beam-search"}

// modelRotation is plan-models' fixed cycle of cost models.
var modelRotation = []struct {
	name     string
	segments int
}{{"pipeline", 4}, {"reduce", 0}, {"barrier", 0}}

// stream returns a generator for one independent random stream of a
// seed. Distinct streams draw network seeds from unrelated sequences; the
// networks they produce are also deduplicated by content, so warm-up and
// timed networks never coincide.
func stream(seed int64, id uint64) *rand.Rand {
	x := uint64(seed) + id*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x >> 1)))
}

// newWorkload generates the named workload's request lists for a seed,
// with about count timed requests (tables rounds up to whole rounds).
// The same arguments always give byte-identical lists.
func newWorkload(name string, seed int64, count int) (*workload, error) {
	w := &workload{Name: name, seen: map[string]bool{}}
	var err error
	switch name {
	case "plan-hot":
		err = w.genHot(seed, count)
	case "plan-cold":
		err = w.genCompare(seed, 1, planN, count, false)
	case "plan-models":
		err = w.genCompare(seed, 3, modelsN, count, true)
	case "tables":
		w.TableMemMiB = tableMemMB
		err = w.genTables(seed, (count+tableReads)/(tableReads+1))
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// addNet draws a fresh n-destination network from rng, skipping any that
// canonicalizes like one already in the workload or whose destinations
// are not spread evenly over the types, and returns its index. The
// evenness keeps the work per request (DP states, scheduler moves) from
// swinging with the seed.
func (w *workload) addNet(rng *rand.Rand, n int) (int, *model.MulticastSet, error) {
	for {
		set, err := cluster.Generate(cluster.GenConfig{N: n, K: netTypes, SourceType: -1, Seed: rng.Int63()})
		if err != nil {
			return 0, nil, err
		}
		if !balanced(set, n) {
			continue
		}
		for i := range set.Nodes {
			set.Nodes[i].Name = ""
		}
		canon := service.Canonicalize(set)
		key := service.KeyCanonical(canon, "", 0)
		if w.seen[key] {
			continue
		}
		w.seen[key] = true
		w.Canon = append(w.Canon, canon)
		return len(w.Canon) - 1, set, nil
	}
}

// balanced reports whether each of the netTypes types has n/netTypes ±
// n/16 of the set's n destinations.
func balanced(set *model.MulticastSet, n int) bool {
	counts := map[model.Node]int{}
	for _, d := range set.Nodes[1:] {
		counts[model.Node{Send: d.Send, Recv: d.Recv}]++
	}
	if len(counts) != netTypes {
		return false
	}
	for _, c := range counts {
		if d := c*netTypes - n; d*16 > n*netTypes || -d*16 > n*netTypes {
			return false
		}
	}
	return true
}

func setJSON(set *model.MulticastSet) (json.RawMessage, error) {
	js, err := trace.MarshalSetJSON(set)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := json.Compact(&b, js); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func (w *workload) genHot(seed int64, count int) error {
	rng := stream(seed, 0)
	type plan struct {
		net  int
		set  *model.MulticastSet
		algo string
	}
	plans := make([]plan, 0, hotNets*len(hotAlgos))
	for i := 0; i < hotNets; i++ {
		idx, set, err := w.addNet(rng, planN)
		if err != nil {
			return err
		}
		for _, algo := range hotAlgos {
			plans = append(plans, plan{idx, set, algo})
		}
	}
	mk := func(p plan, set *model.MulticastSet, hit bool) (request, error) {
		raw, err := setJSON(set)
		if err != nil {
			return request{}, err
		}
		body, err := json.Marshal(service.ScheduleRequest{Algo: p.algo, Set: raw})
		return request{Kind: kindSchedule, Body: body, Net: p.net, Algo: p.algo, Hit: hit}, err
	}
	for _, p := range plans {
		r, err := mk(p, p.set, false)
		if err != nil {
			return err
		}
		w.Warm = append(w.Warm, r)
	}
	// Each timed request re-sends a warmed plan with its destinations in a
	// fresh order, so the server's canonicalization sorts real input.
	perm := &model.MulticastSet{}
	for i := 0; i < count; i++ {
		p := plans[rng.Intn(len(plans))]
		perm.Latency = p.set.Latency
		perm.Nodes = append(perm.Nodes[:0], p.set.Nodes[0])
		for _, j := range rng.Perm(len(p.set.Nodes) - 1) {
			perm.Nodes = append(perm.Nodes, p.set.Nodes[j+1])
		}
		r, err := mk(p, perm, true)
		if err != nil {
			return err
		}
		w.Timed = append(w.Timed, r)
	}
	return nil
}

// genCompare builds plan-cold (base model) or plan-models (a fixed
// rotation of models): one /v1/compare per fresh network, warm-up and
// timed networks drawn from separate streams.
func (w *workload) genCompare(seed int64, firstStream uint64, n, count int, models bool) error {
	gen := func(rng *rand.Rand, reqs int) ([]request, error) {
		out := make([]request, 0, reqs)
		for i := 0; i < reqs; i++ {
			idx, set, err := w.addNet(rng, n)
			if err != nil {
				return nil, err
			}
			raw, err := setJSON(set)
			if err != nil {
				return nil, err
			}
			r := request{Kind: kindCompare, Net: idx, Seed: 1 + rng.Int63n(1<<30)}
			if models {
				m := modelRotation[i%len(modelRotation)]
				r.Model, r.Segments = m.name, m.segments
			}
			r.Body, err = json.Marshal(service.CompareRequest{
				Seed: r.Seed, Set: raw,
				ModelParams: service.ModelParams{Model: r.Model, Segments: r.Segments},
			})
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	var err error
	if w.Warm, err = gen(stream(seed, firstStream), coldWarm); err != nil {
		return err
	}
	w.Timed, err = gen(stream(seed, firstStream+1), count)
	return err
}

// genTables builds rounds of one table build of a fresh network followed
// by tableReads re-reads of networks built earlier in the run.
func (w *workload) genTables(seed int64, rounds int) error {
	var built []int
	gen := func(rng *rand.Rand, n int) ([]request, error) {
		out := make([]request, 0, n*(tableReads+1))
		for i := 0; i < n; i++ {
			idx, set, err := w.addNet(rng, tableN)
			if err != nil {
				return nil, err
			}
			raw, err := setJSON(set)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(service.TableRequest{Set: raw})
			if err != nil {
				return nil, err
			}
			built = append(built, idx)
			out = append(out, request{Kind: kindTableBuild, Net: idx, Body: body})
			for j := 0; j < tableReads; j++ {
				prev := built[rng.Intn(len(built))]
				raw, err := setJSON(w.Canon[prev])
				if err != nil {
					return nil, err
				}
				body, err := json.Marshal(service.TableRequest{Set: raw})
				if err != nil {
					return nil, err
				}
				out = append(out, request{Kind: kindTableRead, Net: prev, Body: body})
			}
		}
		return out, nil
	}
	var err error
	if w.Warm, err = gen(stream(seed, 5), tableWarm); err != nil {
		return err
	}
	w.Timed, err = gen(stream(seed, 6), rounds)
	return err
}
