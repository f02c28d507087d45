package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/trace"
)

// responses records the outcome of a request list: per request the
// status and a hash of the body, and each distinct body once. plan-hot
// sends thousands of requests for ~1k distinct plans, so storing bodies
// by hash keeps the record small while every response is still checked.
type responses struct {
	seed   maphash.Seed
	status []int // 0: transport error
	sum    []uint64
	bodies map[uint64][]byte
}

func newResponses(n int) *responses {
	return &responses{
		seed:   maphash.MakeSeed(),
		status: make([]int, n),
		sum:    make([]uint64, n),
		bodies: map[uint64][]byte{},
	}
}

func (r *responses) add(i, status int, body []byte) {
	h := maphash.Bytes(r.seed, body)
	r.status[i], r.sum[i] = status, h
	if _, ok := r.bodies[h]; !ok {
		r.bodies[h] = append([]byte(nil), body...)
	}
}

// checker verifies responses against what the workload's inputs imply.
// Verdicts are memoized per (body, request expectation), so a body
// repeated for the same plan is checked once.
type checker struct {
	w       *workload
	opt     map[int]int64 // optimal RT per network, from its table build
	verdict map[verdictKey]error
	errs    []string
}

type verdictKey struct {
	sum      uint64
	kind     kind
	net      int
	algo     string
	model    string
	segments int
	seed     int64
	hit      bool
}

func newChecker(w *workload) *checker {
	return &checker{w: w, opt: map[int]int64{}, verdict: map[verdictKey]error{}}
}

// check verifies every response of reqs and returns how many failed.
// The first few failures are kept for the report.
func (c *checker) check(reqs []request, res *responses) int {
	failed := 0
	for i := range reqs {
		r := &reqs[i]
		var err error
		if res.status[i] != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", res.status[i], res.bodies[res.sum[i]])
		} else {
			k := verdictKey{res.sum[i], r.Kind, r.Net, r.Algo, r.Model, r.Segments, r.Seed, r.Hit}
			var ok bool
			if err, ok = c.verdict[k]; !ok {
				err = c.checkOne(r, res.bodies[res.sum[i]])
				c.verdict[k] = err
			}
		}
		if err != nil {
			failed++
			if len(c.errs) < 5 {
				c.errs = append(c.errs, fmt.Sprintf("%s net %d: %v", kindPath[r.Kind], r.Net, err))
			}
		}
	}
	return failed
}

func (c *checker) checkOne(r *request, body []byte) error {
	switch r.Kind {
	case kindSchedule:
		return c.checkSchedule(r, body)
	case kindCompare:
		return c.checkCompare(r, body)
	default:
		return c.checkTable(r, body)
	}
}

// checkSchedule: the plan decodes, is a schedule of the canonical
// network, its recomputed times match the reported ones, and rt is at
// least the reported (and recomputed) lower bound.
func (c *checker) checkSchedule(r *request, body []byte) error {
	var resp service.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	canon := c.w.Canon[r.Net]
	wantCache := "miss"
	if r.Hit {
		wantCache = "hit"
	}
	if resp.Algo != r.Algo || resp.Cache != wantCache {
		return fmt.Errorf("algo/cache %s/%s, want %s/%s", resp.Algo, resp.Cache, r.Algo, wantCache)
	}
	if key := service.KeyCanonical(canon, r.Algo, 0); resp.Key != key {
		return fmt.Errorf("key %q, want %q", resp.Key, key)
	}
	sch, err := trace.UnmarshalJSON(resp.Schedule)
	if err != nil {
		return err
	}
	if !sameNodes(sch.Set, canon) {
		return fmt.Errorf("schedule is not over the canonical network")
	}
	if tm := model.ComputeTimes(sch); tm.RT != resp.RT || tm.DT != resp.DT {
		return fmt.Errorf("reported rt/dt %d/%d, recomputed %d/%d", resp.RT, resp.DT, tm.RT, tm.DT)
	}
	if lb := lower.Best(canon); resp.LowerBound != lb || resp.RT < lb {
		return fmt.Errorf("rt %d, lower bound %d (recomputed %d)", resp.RT, resp.LowerBound, lb)
	}
	return nil
}

// crossChecked are the compare schedulers cheap enough to rerun on the
// client, whose RT must then match the server's exactly.
var crossChecked = map[string]bool{
	"greedy": true, "greedy+leafrev": true, "star": true, "chain": true, "binomial": true,
	"fnf-nodemodel": true, "random": true, "postal": true, "slowest-first": true,
}

// costModel is the cost model a compare request names (nil for base).
func costModel(name string, segments int) model.CostModel {
	switch name {
	case "pipeline":
		return &model.PipelineModel{Segments: segments}
	case "reduce":
		return &model.ReduceModel{}
	case "barrier":
		return &model.BarrierModel{}
	}
	return nil
}

// checkCompare: every registry scheduler answered, each RT is at least
// the lower bound (the recomputed one in the base model), and the cheap
// schedulers' RTs match a client-side rerun under the same model.
func (c *checker) checkCompare(r *request, body []byte) error {
	var resp service.CompareResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	canon := c.w.Canon[r.Net]
	cm := costModel(r.Model, r.Segments)
	scheds, err := registry.SchedulersFor(r.Seed, cm)
	if err != nil {
		return err
	}
	if len(resp.RT) != len(scheds) || resp.Optimal != nil {
		return fmt.Errorf("%d schedulers (optimal %v), want %d and no optimal", len(resp.RT), resp.Optimal != nil, len(scheds))
	}
	wantLB := int64(0)
	if cm == nil {
		wantLB = lower.Best(canon)
		if resp.Theorem1.C != bounds.ParamsOf(canon).C {
			return fmt.Errorf("theorem1 c %v, want %v", resp.Theorem1.C, bounds.ParamsOf(canon).C)
		}
	}
	if resp.LowerBound != wantLB {
		return fmt.Errorf("lower bound %d, want %d", resp.LowerBound, wantLB)
	}
	for _, s := range scheds {
		rt, ok := resp.RT[s.Name()]
		if !ok || rt <= 0 || rt < resp.LowerBound {
			return fmt.Errorf("%s: rt %d (present %v), lower bound %d", s.Name(), rt, ok, resp.LowerBound)
		}
		if !crossChecked[s.Name()] {
			continue
		}
		sch, err := s.Schedule(canon)
		if err != nil {
			return err
		}
		if cm != nil {
			sch.BindModel(cm)
		}
		var tm model.Times
		if err := model.EvalTimes(sch, &tm); err != nil {
			return err
		}
		if tm.RT != rt {
			return fmt.Errorf("%s: rt %d, client rerun %d", s.Name(), rt, tm.RT)
		}
	}
	return nil
}

// checkTable: a build reports lower bound <= optimal <= greedy RT with
// greedy inside Theorem 1's bound; a re-read returns the build's optimum.
func (c *checker) checkTable(r *request, body []byte) error {
	var resp service.TableResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	canon := c.w.Canon[r.Net]
	total := 0
	for _, n := range resp.Counts {
		total += n
	}
	if total != len(canon.Nodes)-1 {
		return fmt.Errorf("table covers %d destinations, want %d", total, len(canon.Nodes)-1)
	}
	opt := resp.OptimalRT
	if r.Kind == kindTableRead {
		want, ok := c.opt[r.Net]
		if !ok || opt != want || (resp.Cache != service.TableCacheHit && resp.Cache != service.TableCacheDisk) {
			return fmt.Errorf("re-read optimal %d via %q, build gave %d (built %v)", opt, resp.Cache, want, ok)
		}
		return nil
	}
	if resp.Cache != service.TableCacheMiss {
		return fmt.Errorf("build served from %q, want a fresh build", resp.Cache)
	}
	sch, err := core.Greedy{}.Schedule(canon)
	if err != nil {
		return err
	}
	greedy := model.RT(sch)
	lb := lower.Best(canon)
	if lb > opt || opt > greedy || float64(greedy) >= bounds.ParamsOf(canon).Bound(opt) {
		return fmt.Errorf("want lower bound %d <= optimal %d <= greedy %d < Theorem 1 bound %v",
			lb, opt, greedy, bounds.ParamsOf(canon).Bound(opt))
	}
	c.opt[r.Net] = opt
	return nil
}

func sameNodes(a, b *model.MulticastSet) bool {
	if a.Latency != b.Latency || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i].Send != b.Nodes[i].Send || a.Nodes[i].Recv != b.Nodes[i].Recv {
			return false
		}
	}
	return true
}
