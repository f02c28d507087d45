// Package modelbound holds golden fixtures for the modelbound analyzer:
// every want-marker is a finding the analyzer must emit on
// that line, and unmarked lines must stay clean. The package is
// type-checked by the test harness only, never built or run.
package modelbound

import (
	"repro/internal/exact"
	"repro/internal/heur"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/wan"
)

// pr8Shape is the historical PR 8 headline bug, preserved as the golden
// positive: a WAN greedy schedule carries a bound LinkModel, and scoring
// it with the base-model helper silently reports LAN-floor times.
func pr8Shape(topo *wan.Topology) (int64, error) {
	sch, err := heur.ModelGreedy{Model: &model.LinkModel{Lat: topo.Lat}}.Schedule(topo.BaseSet(topo.MinLatency()))
	if err != nil {
		return 0, err
	}
	return model.RT(sch), nil // want "may be model-bound"
}

// pr8Fixed is the same shape with the sanctioned fix: evaluate through
// the model-dispatching path instead of the base-only helper.
func pr8Fixed(topo *wan.Topology) (int64, error) {
	sch, err := heur.ModelGreedy{Model: &model.LinkModel{Lat: topo.Lat}}.Schedule(topo.BaseSet(topo.MinLatency()))
	if err != nil {
		return 0, err
	}
	var tm model.Times
	if err := model.EvalTimes(sch, &tm); err != nil {
		return 0, err
	}
	return tm.RT, nil
}

// boundThenTraced binds a cost model and then hands the schedule to the
// base-only renderers and helpers.
func boundThenTraced(sch *model.Schedule, cm model.CostModel) string {
	sch.BindModel(cm)
	out := trace.Tree(sch)      // want "may be model-bound"
	out += trace.Gantt(sch, 80) // want "may be model-bound"
	if model.IsLayered(sch) {   // want "may be model-bound"
		out += "layered"
	}
	return out
}

// guardedAfterBind shows the guard idiom the analyzer recognizes: a
// model.IsBase check naming the schedule clears the taint.
func guardedAfterBind(sch *model.Schedule, cm model.CostModel) int64 {
	sch.BindModel(cm)
	if !model.IsBase(sch.Model()) {
		return -1
	}
	return model.RT(sch)
}

// reboundToBase clears the taint by rebinding to the base model.
func reboundToBase(sch *model.Schedule, cm model.CostModel) int64 {
	sch.BindModel(cm)
	sch.BindModel(nil)
	return model.RT(sch)
}

// registryTainted: schedules produced by registry-selected schedulers
// may be model-bound (the registry wires the cost model in).
func registryTainted(set *model.MulticastSet, cm model.CostModel) (int64, error) {
	s, err := registry.LookupFor("greedy", 1, cm)
	if err != nil {
		return 0, err
	}
	sch, err := s.Schedule(set)
	if err != nil {
		return 0, err
	}
	return model.DT(sch), nil // want "may be model-bound"
}

// rangedSchedulers: the taint follows range elements of a registry
// scheduler slice.
func rangedSchedulers(set *model.MulticastSet, cm model.CostModel) (int64, error) {
	scheds, err := registry.SchedulersFor(1, cm)
	if err != nil {
		return 0, err
	}
	var worst int64
	for _, s := range scheds {
		sch, err := s.Schedule(set)
		if err != nil {
			continue
		}
		if rt := model.RT(sch); rt > worst { // want "may be model-bound"
			worst = rt
		}
	}
	return worst, nil
}

// modelGreedyDirect: a heur.ModelGreedy result fed straight into a sink
// without touching a variable.
func modelGreedyDirect(g heur.ModelGreedy, set *model.MulticastSet) string {
	sch, _ := g.Schedule(set)
	return trace.DOT(sch) // want "may be model-bound"
}

// evalThroughEngine: model-dispatching evaluation is not a sink.
func evalThroughEngine(g heur.ModelGreedy, set *model.MulticastSet) (int64, error) {
	sch, err := g.Schedule(set)
	if err != nil {
		return 0, err
	}
	var tm model.Times
	if err := model.EvalTimes(sch, &tm); err != nil {
		return 0, err
	}
	return tm.RT, nil
}

// plainScheduleClean: a schedule from nowhere suspicious stays clean.
func plainScheduleClean(sch *model.Schedule) int64 {
	return model.RT(sch)
}

// exactCrossModel compares a WAN-bound schedule against the exact
// base-model optimum through its own Set: the ratio silently crosses
// cost models.
func exactCrossModel(topo *wan.Topology) (int64, error) {
	sch, err := heur.ModelGreedy{Model: &model.LinkModel{Lat: topo.Lat}}.Schedule(topo.BaseSet(topo.MinLatency()))
	if err != nil {
		return 0, err
	}
	return exact.OptimalRT(sch.Set) // want "may be model-bound"
}

// exactEntryPoints: every exact entry point is base-only by
// construction, so a bound schedule's Set is flagged at each of them.
func exactEntryPoints(dp *exact.DP, sch *model.Schedule, cm model.CostModel) {
	sch.BindModel(cm)
	exact.Schedule(sch.Set)              // want "may be model-bound"
	exact.BuildTable(sch.Set)            // want "may be model-bound"
	dp.ScheduleFor(sch.Set, 0, nil, nil) // want "may be model-bound"
	exact.BuildTableParallel(sch.Set, 4) // want "may be model-bound"
}

// exactGuarded: the IsBase guard clears the schedule before its Set
// reaches the solver.
func exactGuarded(sch *model.Schedule, cm model.CostModel) (int64, error) {
	sch.BindModel(cm)
	if !model.IsBase(sch.Model()) {
		return 0, nil
	}
	return exact.OptimalRT(sch.Set)
}

// exactPlainSet: a set that never came off a tainted schedule is fine.
func exactPlainSet(set *model.MulticastSet) (int64, error) {
	return exact.OptimalRT(set)
}

// suppressed shows the escape hatch for a reviewed call site.
func suppressed(topo *wan.Topology) int64 {
	sch, err := heur.ModelGreedy{Model: &model.LinkModel{Lat: topo.Lat}}.Schedule(topo.BaseSet(topo.MinLatency()))
	if err != nil {
		return 0
	}
	return model.RT(sch) //hnowlint:ignore modelbound fixture: documents the suppression syntax
}
