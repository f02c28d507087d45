// Package hnow is a library for efficient multicast in heterogeneous
// networks of workstations (HNOWs), reproducing
//
//	R. Libeskind-Hadas and J. Hartline, "Efficient Multicast in
//	Heterogeneous Networks of Workstations", Proc. ICPP 2000 Workshop on
//	Network-Based Computing, Toronto, pp. 403-410.
//
// The library implements the heterogeneous receive-send communication
// model, the paper's O(n log n) greedy approximation algorithm with its
// leaf-reversal post-pass, the exact O(n^(2k)) dynamic program for
// networks with k distinct workstation types, the Theorem 1 approximation
// bound machinery, prior-art baselines, a discrete-event simulator, a
// goroutine-per-node live executor, cluster workload generators, and
// collective operations (reduce/barrier) built on multicast trees.
//
// Quick start:
//
//	set, _ := hnow.NewMulticastSet(1,
//	    hnow.Node{Send: 2, Recv: 3, Name: "slow-source"},
//	    hnow.Node{Send: 1, Recv: 1}, hnow.Node{Send: 1, Recv: 1})
//	sch, _ := hnow.Greedy(set)
//	fmt.Println(hnow.ComputeTimes(sch).RT)
package hnow

import (
	"time"

	"repro/internal/baselines"
	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/heur"
	"repro/internal/live"
	"repro/internal/lower"
	"repro/internal/model"
	"repro/internal/nodemodel"
	"repro/internal/pipeline"
	"repro/internal/postal"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Core model types, re-exported from the model package.
type (
	// Node is a workstation with sending and receiving overheads.
	Node = model.Node
	// NodeID indexes nodes within a MulticastSet; the source is 0.
	NodeID = model.NodeID
	// MulticastSet is a multicast problem instance.
	MulticastSet = model.MulticastSet
	// Schedule is an ordered multicast tree.
	Schedule = model.Schedule
	// Times holds delivery/reception times of a schedule.
	Times = model.Times
	// Scheduler is the algorithm interface shared by greedy, the DP and
	// the baselines.
	Scheduler = model.Scheduler
	// RatioStats summarizes receive-send ratios (Theorem 1 parameters).
	RatioStats = model.RatioStats
)

// NewMulticastSet builds and validates a multicast set; the first node is
// the source.
func NewMulticastSet(latency int64, source Node, dests ...Node) (*MulticastSet, error) {
	return model.NewMulticastSet(latency, source, dests...)
}

// NewSchedule creates an empty schedule for manual construction.
func NewSchedule(set *MulticastSet) *Schedule { return model.NewSchedule(set) }

// ComputeTimes evaluates the receive-send model recurrences on a schedule.
func ComputeTimes(sch *Schedule) Times { return model.ComputeTimes(sch) }

// CompletionTime returns the reception completion time RT of a schedule,
// the objective the paper minimizes.
func CompletionTime(sch *Schedule) int64 { return model.RT(sch) }

// DeliveryCompletionTime returns DT, the latest delivery time.
func DeliveryCompletionTime(sch *Schedule) int64 { return model.DT(sch) }

// IsLayered reports whether faster nodes take delivery no later than
// slower ones (the structural property of greedy schedules).
func IsLayered(sch *Schedule) bool { return model.IsLayered(sch) }

// Greedy runs the paper's O(n log n) greedy algorithm (Section 2).
func Greedy(set *MulticastSet) (*Schedule, error) { return core.Schedule(set) }

// GreedyWithReversal runs greedy followed by the leaf-reversal post-pass
// the paper recommends for practice (end of Section 3). Never worse than
// Greedy.
func GreedyWithReversal(set *MulticastSet) (*Schedule, error) {
	return core.ScheduleWithReversal(set)
}

// ReverseLeaves applies the leaf-reversal post-pass to an existing
// schedule in place and returns it.
func ReverseLeaves(sch *Schedule) (*Schedule, error) { return core.ReverseLeaves(sch) }

// Optimal computes an optimal schedule with the Lemma 4 dynamic program
// (Section 4); cost O(n^(2k)) for k distinct node types. It fails if the
// instance has too many distinct types for its size.
func Optimal(set *MulticastSet) (*Schedule, error) { return exact.Schedule(set) }

// OptimalRT computes just the optimal reception completion time.
func OptimalRT(set *MulticastSet) (int64, error) { return exact.OptimalRT(set) }

// OptimalTable precomputes optimal completion times for every possible
// multicast in a network (Theorem 2's closing remark); see exact.Table.
type OptimalTable = exact.Table

// BuildOptimalTable materializes the full DP table for the set's network.
func BuildOptimalTable(set *MulticastSet) (*OptimalTable, error) { return exact.BuildTable(set) }

// BruteForceRT exhaustively finds the optimal completion time for tiny
// instances (<= 8 destinations); an independent oracle for testing.
func BruteForceRT(set *MulticastSet) (int64, error) { return exact.BruteForceRT(set) }

// BoundParams carries the Theorem 1 constants (amin, amax, beta, C).
type BoundParams = bounds.Params

// TheoremBound computes the Theorem 1 constants for a set; use
// Params.Bound(optRT) for the guarantee 2*ceil(amax)/amin*OPT+beta.
func TheoremBound(set *MulticastSet) BoundParams { return bounds.ParamsOf(set) }

// LowerBound returns the strongest provable lower bound on the optimal
// completion time (Direct, Capacity, SortedRecv and Growth bounds; the
// Growth bound follows from the paper's Lemma 2 + Corollary 1).
func LowerBound(set *MulticastSet) int64 { return lower.Best(set) }

// OptimalityGap returns RT(schedule) / LowerBound(instance): values near
// 1 certify near-optimality without running the exact DP.
func OptimalityGap(sch *Schedule) (float64, error) { return lower.Gap(sch) }

// GreedyScheduler returns the paper's algorithm as a Scheduler; reversal
// selects the leaf-reversal post-pass.
func GreedyScheduler(reversal bool) Scheduler { return core.Greedy{Reversal: reversal} }

// OptimalScheduler returns the DP as a Scheduler.
func OptimalScheduler() Scheduler { return exact.Solver{} }

// Baselines returns the comparison schedulers: sequential star, linear
// chain, binomial tree, the heterogeneous-node-model FNF greedy, and a
// seeded random tree.
func Baselines(randomSeed int64) []Scheduler { return baselines.All(randomSeed) }

// AllSchedulers returns greedy (with and without reversal), every
// baseline, and the postal-model tree.
func AllSchedulers(randomSeed int64) []Scheduler {
	out := append([]Scheduler{GreedyScheduler(false), GreedyScheduler(true)}, Baselines(randomSeed)...)
	return append(out, postal.Scheduler{})
}

// SimResult is the outcome of a discrete-event simulation.
type SimResult = sim.Result

// Perturb adjusts individual costs during simulation (jitter/stragglers).
type Perturb = sim.Perturb

// Simulate executes a schedule on the discrete-event simulator with exact
// costs; its times match ComputeTimes exactly.
func Simulate(sch *Schedule) (SimResult, error) { return sim.Run(sch) }

// SimulatePerturbed executes with perturbed costs.
func SimulatePerturbed(sch *Schedule, p Perturb) (SimResult, error) {
	return sim.RunPerturbed(sch, p)
}

// UniformJitter builds a deterministic cost perturbation scaling each cost
// by a factor in [1-amp, 1+amp].
func UniformJitter(seed int64, amp float64) Perturb { return sim.UniformJitter(seed, amp) }

// Slowdown builds a straggler perturbation multiplying one node's costs.
func Slowdown(straggler NodeID, factor float64) Perturb { return sim.Slowdown(straggler, factor) }

// LiveConfig tunes the goroutine-per-node live executor.
type LiveConfig = live.Config

// LiveResult is a measured concurrent execution.
type LiveResult = live.Result

// RunLive executes the schedule concurrently (one goroutine per node,
// channels as links) and measures real timings in abstract units.
func RunLive(sch *Schedule, unit time.Duration) (*LiveResult, error) {
	return live.Run(sch, live.Config{Unit: unit})
}

// Cluster generation types, re-exported from the cluster package.
type (
	// Profile is a workstation class with fixed + per-KB overheads.
	Profile = cluster.Profile
	// Network is a latency model plus workstation classes.
	Network = cluster.Network
	// ClusterSpec instantiates a network into a concrete node census.
	ClusterSpec = cluster.Spec
	// GenConfig parameterizes the random instance generator.
	GenConfig = cluster.GenConfig
)

// DefaultNetwork returns a three-class network modeled on the paper-era
// testbeds.
func DefaultNetwork() Network { return cluster.Default() }

// Generate draws a random valid multicast set (see GenConfig).
func Generate(cfg GenConfig) (*MulticastSet, error) { return cluster.Generate(cfg) }

// Gantt renders an ASCII Gantt chart of the schedule.
func Gantt(sch *Schedule, maxWidth int) string { return trace.Gantt(sch, maxWidth) }

// DOT renders the schedule as a Graphviz digraph.
func DOT(sch *Schedule) string { return trace.DOT(sch) }

// SVG renders the schedule as a self-contained SVG Gantt figure.
func SVG(sch *Schedule) string { return trace.SVG(sch) }

// TreeString renders the schedule as an indented tree annotated with
// reception times, Figure 1 style.
func TreeString(sch *Schedule) string { return trace.Tree(sch) }

// MarshalSchedule serializes a schedule (with its instance) to JSON.
func MarshalSchedule(sch *Schedule) ([]byte, error) { return trace.MarshalJSON(sch) }

// UnmarshalSchedule reconstructs a schedule from MarshalSchedule output.
func UnmarshalSchedule(data []byte) (*Schedule, error) { return trace.UnmarshalJSON(data) }

// MarshalSet serializes just a multicast set.
func MarshalSet(set *MulticastSet) ([]byte, error) { return trace.MarshalSetJSON(set) }

// UnmarshalSet reads a multicast set.
func UnmarshalSet(data []byte) (*MulticastSet, error) { return trace.UnmarshalSetJSON(data) }

// LocalSearchScheduler hill-climbs from greedy+leafrev with node-swap and
// leaf-relocation moves (Section 5 future-work exploration).
func LocalSearchScheduler(maxRounds int) Scheduler { return heur.LocalSearch{MaxRounds: maxRounds} }

// AnnealingScheduler is a seeded simulated-annealing scheduler starting
// from greedy+leafrev.
func AnnealingScheduler(seed int64, iters int) Scheduler {
	return heur.Annealing{Seed: seed, Iters: iters}
}

// SlowestFirstScheduler inserts destinations slowest-first, the natural
// foil to the paper's fastest-first order.
func SlowestFirstScheduler() Scheduler { return heur.SlowestFirst{} }

// BeamSearchScheduler generalizes the greedy construction, keeping the
// width best partial schedules; width 1 degenerates to greedy. Closes
// greedy's residual gap to optimal on small instances (see E11).
func BeamSearchScheduler(width, branch int) Scheduler {
	return heur.BeamSearch{Width: width, Branch: branch}
}

// NodeModelInstance is a heterogeneous node-model instance (the prior-art
// model of the paper's references [2] and [9]).
type NodeModelInstance = nodemodel.Instance

// NodeModelFrom projects a receive-send instance onto the node model
// (keeping only sending overheads).
func NodeModelFrom(set *MulticastSet) *NodeModelInstance { return nodemodel.FromReceiveSend(set) }

// NodeModelSchedule builds the node-model FNF greedy tree for the set and
// returns it as a receive-send schedule, for cross-model comparison.
func NodeModelSchedule(set *MulticastSet) (*Schedule, error) {
	inst := nodemodel.FromReceiveSend(set)
	tree, err := inst.Greedy()
	if err != nil {
		return nil, err
	}
	return nodemodel.ToSchedule(tree, set)
}

// PostalScheduler adapts the optimal postal-model broadcast tree shape
// (Bar-Noy & Kipnis, the paper's reference [4]) as a baseline.
func PostalScheduler() Scheduler { return postal.Scheduler{} }

// PipelineRT streams M segments down the schedule tree, interpreting the
// instance overheads as per-segment costs, and returns the completion
// time. With M = 1 it equals CompletionTime. It returns an error for an
// incomplete tree, for a segment count outside [1, 4096], and when the
// segment count times the set's cost bound could overflow the time
// arithmetic.
func PipelineRT(sch *Schedule, segments int) (int64, error) {
	return evalRT(sch, model.PipelineModel{Segments: segments})
}

// SplitSegments derives the per-segment instance for streaming a message
// in M equal parts (pure-bandwidth overhead division; for fixed+per-KB
// profiles instantiate the ClusterSpec at the segment size instead).
func SplitSegments(set *MulticastSet, segments int) (*MulticastSet, error) {
	return pipeline.SplitSet(set, segments)
}

// CollectivePlan analyzes broadcast, reduce and barrier costs of one
// scheduler's tree.
type CollectivePlan = collective.Plan

// PlanCollectives builds the scheduler's tree and costs all three
// collectives on it (the future-work extension of Section 5).
func PlanCollectives(s Scheduler, set *MulticastSet) (*CollectivePlan, error) {
	return collective.PlanFor(s, set)
}

// ReduceRT analyzes the schedule tree as a reduction toward the source
// and returns the completion time.
func ReduceRT(sch *Schedule) (int64, error) { return evalRT(sch, model.ReduceModel{}) }

// BarrierRT returns the completion time of reduce + broadcast on the tree.
func BarrierRT(sch *Schedule) (int64, error) { return evalRT(sch, model.BarrierModel{}) }

// evalRT scores a complete tree under cm. It binds cm on a clone, so the
// caller's schedule keeps its own binding, whatever that is.
func evalRT(sch *Schedule, cm model.CostModel) (int64, error) {
	if err := sch.Validate(); err != nil {
		return 0, err
	}
	if err := cm.Validate(sch.Set); err != nil {
		return 0, err
	}
	bound := sch.Clone()
	bound.BindModel(cm)
	var tm model.Times
	err := model.EvalTimes(bound, &tm)
	return tm.RT, err
}
