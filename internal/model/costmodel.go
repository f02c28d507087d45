package model

import (
	"fmt"
	"sync"
)

// CostModel abstracts the objective a schedule tree is scored under. The
// base receive-send model of the paper is one point in a family its
// references span: per-link WAN latencies, M-segment pipelined streaming,
// the reverse-tree collectives (reduce, barrier) and the node model. A
// CostModel describes itself once, as a recurrence over the Engine's flat
// BFS layout (a forward recurrence M segments wide, a reverse ready fold,
// or both): EvalTimes scores a whole schedule with it and the Engine
// scores it move by move with the same incremental subtree walk. The
// per-node Times a model produces are documented on each implementation;
// RT is always the objective to minimize. Each scenario package keeps
// its own ad-hoc evaluator in its tests as the bit-level parity oracle
// for the recurrences here.
//
// The interface has an unexported method, so every implementation lives
// in this package and the Engine covers each one.
//
// Implementations must be stateless after construction: one CostModel
// value is shared across goroutines by sweeps and the service.
type CostModel interface {
	// Name identifies the model ("base", "wan", "pipeline", ...). Names
	// are stable API: they appear in service requests and cache keys.
	Name() string
	// Validate checks the model's own parameters against an instance
	// (matrix dimensions, segment counts); overhead positivity is the
	// set's own Validate.
	Validate(set *MulticastSet) error
	// TypeSymmetric reports whether two destinations with equal
	// (Send, Recv) overheads are interchangeable under the model — i.e.
	// swapping their tree positions can never change any time. Search
	// heuristics prune same-type swaps only when this holds; the link
	// model returns false (latency rows distinguish equal-overhead
	// nodes).
	TypeSymmetric() bool
	// recurrence returns the Engine configuration that scores the model
	// on set, or an error when the model cannot be evaluated on it (a
	// latency matrix of the wrong size, a segment count out of range).
	recurrence(set *MulticastSet) (recurrence, error)
}

// recurrence is a cost model as the Engine runs it. The forward
// recurrence is M = segs wide: F[p][s] is when position p is free after
// receiving segment s, the rank-j child c of p receives segment s at
// a_s = F[p][s] + j·send_p + lat and is free at
// F[c][s] = max(F[c][s-1] + k_c·send_c, a_s) + recv_c, and the root sends
// segment s from s·k_0·send_0. Delivery is a_0 and reception F[c][M-1];
// with M = 1 this is the paper's recurrence. The reverse recurrence folds
// each position's children from the last rank to the first,
// busy = max(ready[c] + send_c + lat, busy) + recv_p, leaves at 0.
type recurrence struct {
	segs   int       // forward width M; 0 runs no forward recurrence (reduce)
	lat    int64     // uniform latency term
	links  [][]int64 // per-ordered-pair latency replacing lat (link model)
	noRecv bool      // receptions are instantaneous (node model)
	// ready adds the reverse fold. Without a forward recurrence every
	// attached node's times are its ready time (reduce); with one, the
	// root's ready time offsets every forward time (barrier).
	ready bool
}

// BaseModel is the paper's receive-send model: d(w_i) = r(v) + i*osend(v)
// + L with one global latency. A nil CostModel and BaseModel{} are
// interchangeable everywhere.
type BaseModel struct{}

// Name implements CostModel.
func (BaseModel) Name() string { return "base" }

// Validate implements CostModel; the base model has no extra parameters.
func (BaseModel) Validate(set *MulticastSet) error { return nil }

// TypeSymmetric implements CostModel.
func (BaseModel) TypeSymmetric() bool { return true }

func (BaseModel) recurrence(set *MulticastSet) (recurrence, error) {
	return recurrence{segs: 1, lat: set.Latency}, nil
}

// IsBase reports whether cm denotes the base receive-send model (nil,
// BaseModel{} or *BaseModel all do).
func IsBase(cm CostModel) bool {
	switch cm.(type) {
	case nil, BaseModel, *BaseModel:
		return true
	}
	return false
}

// EvalTimes evaluates sch under its bound cost model (the base model when
// unbound), writing into tm. It is the model-dispatching form of
// ComputeTimesInto: the base model runs its own tree walk, every other
// model attaches a pooled Engine and reads its times back. A model that
// cannot be evaluated on sch's set is reported before any scratch is
// sized. After warmup it allocates nothing.
func EvalTimes(sch *Schedule, tm *Times) error {
	cm := sch.Model()
	if IsBase(cm) {
		computeBaseTimesInto(sch, tm)
		return nil
	}
	rc, err := cm.recurrence(sch.Set)
	if err != nil {
		return err
	}
	e := evalEngines.Get().(*Engine)
	e.attach(sch, rc)
	e.TimesInto(tm)
	evalEngines.Put(e)
	return nil
}

// evalEngines holds the Engines EvalTimes borrows for one evaluation.
var evalEngines = sync.Pool{New: func() any { return new(Engine) }}

// LinkModel scores schedules against a per-ordered-pair latency matrix
// (the WAN direction of the paper's reference [5], Bhat, Raghavendra and
// Prasanna): the i-th child w of v is delivered at r(v) + i*osend(v) +
// Lat[v][w]. Reference oracle, in internal/wan's tests: Topology.ComputeTimes.
type LinkModel struct {
	// Lat[u][v] is the latency from u to v (>= 1 off the diagonal),
	// indexed by NodeID.
	Lat [][]int64
}

// Name implements CostModel.
func (*LinkModel) Name() string { return "wan" }

// TypeSymmetric implements CostModel: equal-overhead nodes are still
// distinguished by their latency rows and columns.
func (*LinkModel) TypeSymmetric() bool { return false }

// Validate implements CostModel. Besides the shape and positivity of the
// matrix, it bounds n·(max send + max recv + max off-diagonal latency)
// by MaxCost, the set's own cost bound with the matrix maximum as its
// latency, so no link-model time sum can overflow.
func (m *LinkModel) Validate(set *MulticastSet) error {
	n := len(set.Nodes)
	if len(m.Lat) != n {
		return fmt.Errorf("model: latency matrix has %d rows for %d nodes", len(m.Lat), n)
	}
	var maxLat int64
	for u, row := range m.Lat {
		if len(row) != n {
			return fmt.Errorf("model: latency row %d has %d entries for %d nodes", u, len(row), n)
		}
		for v, l := range row {
			if u == v {
				continue
			}
			if l < 1 {
				return fmt.Errorf("model: latency %d->%d is %d (must be >= 1)", u, v, l)
			}
			maxLat = max(maxLat, l)
		}
	}
	if _, ok := set.costBoundAt(maxLat); !ok {
		return fmt.Errorf("model: %d nodes × (max send + max recv + max latency) exceeds %d", n, int64(MaxCost))
	}
	return nil
}

func (m *LinkModel) recurrence(set *MulticastSet) (recurrence, error) {
	if len(m.Lat) != len(set.Nodes) {
		return recurrence{}, fmt.Errorf("model: latency matrix sized for %d nodes, set has %d", len(m.Lat), len(set.Nodes))
	}
	return recurrence{segs: 1, links: m.Lat}, nil
}

// wanChildTimes is kernChildTimes with a per-child latency gather: the
// link-model engine path's child fill. It carries no //hnow:noalloc
// annotation, so hnowlint does not pin its bounds checks: the latency
// gather defeats bounds-check elimination (latRow is indexed by
// occupant id, not position).
func wanChildTimes(d, r, rc []int64, occ []NodeID, latRow []int64, base, sv int64) {
	r = r[:len(d)]
	rc = rc[:len(d)]
	occ = occ[:len(d)]
	acc := base
	for i := range d {
		acc += sv
		dv := acc + latRow[occ[i]]
		d[i] = dv
		r[i] = dv + rc[i]
	}
}

// wanChildCand is kernChildCand with the per-child latency gather; see
// wanChildTimes.
func wanChildCand(nr, rc []int64, st []uint32, occ []NodeID, latRow []int64, gen uint32, base, sv, movD, movR int64) (int64, int64) {
	rc = rc[:len(nr)]
	st = st[:len(nr)]
	occ = occ[:len(nr)]
	acc := base
	for i := range nr {
		acc += sv
		dv := acc + latRow[occ[i]]
		rj := dv + rc[i]
		nr[i] = rj
		st[i] = gen
		movD = max(movD, dv)
		movR = max(movR, rj)
	}
	return movD, movR
}

// PipelineModel streams the message as M equal segments down the tree;
// node overheads are interpreted as per-segment costs. Delivery[v] is
// when segment 1 arrives at v, Reception[v] when v finishes receiving its
// last segment; RT is the max Reception over destinations. With
// Segments == 1 the times coincide exactly with the base model.
// Reference oracle, in internal/pipeline's tests: Times.
type PipelineModel struct {
	// Segments is the segment count M, in [1, MaxSegments].
	Segments int
}

// MaxSegments caps PipelineModel.Segments: evaluation holds n·Segments
// arrival times and loops Segments times per node.
const MaxSegments = 4096

// CheckSegments reports whether m is a valid pipeline segment count.
func CheckSegments(m int) error {
	if m < 1 || m > MaxSegments {
		return fmt.Errorf("model: pipeline segments must be in [1, %d], got %d", MaxSegments, m)
	}
	return nil
}

// Name implements CostModel.
func (PipelineModel) Name() string { return "pipeline" }

// TypeSymmetric implements CostModel: times depend on nodes only through
// their overheads.
func (PipelineModel) TypeSymmetric() bool { return true }

// Validate implements CostModel: besides the segment count, the set's
// cost bound times Segments must stay within MaxCost, since each segment
// can add up to a whole base-model multicast.
func (m PipelineModel) Validate(set *MulticastSet) error {
	if err := CheckSegments(m.Segments); err != nil {
		return err
	}
	if bound, ok := set.costBound(); !ok || bound > MaxCost/int64(m.Segments) {
		return fmt.Errorf("model: %d segments × the set's cost bound exceeds %d", m.Segments, int64(MaxCost))
	}
	return nil
}

func (m PipelineModel) recurrence(set *MulticastSet) (recurrence, error) {
	if err := CheckSegments(m.Segments); err != nil {
		return recurrence{}, err
	}
	return recurrence{segs: m.Segments, lat: set.Latency}, nil
}

// ReduceModel runs the tree in reverse (gather-combine toward the root):
// leaves start at 0 and each parent absorbs its children's contributions
// in reverse delivery order, paying the child's sending overhead at the
// child and its own receiving overhead per message. Delivery[v] and
// Reception[v] both carry Ready[v], the time v has combined its subtree;
// RT = DT = Ready[root], the reduce completion. Reference oracle, in
// internal/collective's tests: Reduce.
type ReduceModel struct{}

// Name implements CostModel.
func (ReduceModel) Name() string { return "reduce" }

// TypeSymmetric implements CostModel.
func (ReduceModel) TypeSymmetric() bool { return true }

// Validate implements CostModel.
func (ReduceModel) Validate(set *MulticastSet) error { return nil }

func (ReduceModel) recurrence(set *MulticastSet) (recurrence, error) {
	return recurrence{lat: set.Latency, ready: true}, nil
}

// BarrierModel is a reduce followed by a broadcast on the same tree:
// every per-node time is the base-model time offset by the reduce
// completion (the broadcast starts when the root has absorbed every
// contribution), so RT = reduce.Done + broadcast RT. Reference oracle, in
// internal/collective's tests: BarrierRT.
type BarrierModel struct{}

// Name implements CostModel.
func (BarrierModel) Name() string { return "barrier" }

// TypeSymmetric implements CostModel.
func (BarrierModel) TypeSymmetric() bool { return true }

// Validate implements CostModel.
func (BarrierModel) Validate(set *MulticastSet) error { return nil }

func (BarrierModel) recurrence(set *MulticastSet) (recurrence, error) {
	return recurrence{segs: 1, lat: set.Latency, ready: true}, nil
}

// ByName maps a request's model name to its cost model, for every model
// the name and a pipeline segment count determine: "" and "base" give nil
// (the base model), then "pipeline", "reduce" and "barrier". Segments is
// checked by the model's Validate, not here. "wan" needs a latency matrix,
// so callers resolve it before calling; ByName rejects it like any other
// unknown name.
func ByName(name string, segments int) (CostModel, error) {
	switch name {
	case "", "base":
		return nil, nil
	case "pipeline":
		return &PipelineModel{Segments: segments}, nil
	case "reduce":
		return &ReduceModel{}, nil
	case "barrier":
		return &BarrierModel{}, nil
	}
	return nil, fmt.Errorf("unknown model %q (want base, wan, pipeline, reduce or barrier)", name)
}

// NodeModel is the single-parameter per-node cost family the paper's
// references [2]/[9] span (postal and node models): the i-th child w of v
// is delivered at r(v) + i*c(v) + Lambda where c(v) is v's Send overhead
// and reception is instantaneous (Recv is ignored). Lambda = 0 is the
// pure node model of package nodemodel; c == 1 recovers the postal model
// with latency Lambda. Reference oracles: nodemodel.Instance.Times and,
// in internal/postal's tests, Tree.CompletionTime.
type NodeModel struct {
	// Lambda is the uniform communication latency (>= 0).
	Lambda int64
}

// Name implements CostModel.
func (NodeModel) Name() string { return "node" }

// TypeSymmetric implements CostModel.
func (NodeModel) TypeSymmetric() bool { return true }

// Validate implements CostModel. Lambda stands in for the set's latency
// in its cost bound, which must stay within MaxCost.
func (m NodeModel) Validate(set *MulticastSet) error {
	if m.Lambda < 0 {
		return fmt.Errorf("model: node-model lambda must be >= 0, got %d", m.Lambda)
	}
	if _, ok := set.costBoundAt(m.Lambda); !ok {
		return fmt.Errorf("model: %d nodes × (max send + max recv + lambda) exceeds %d", len(set.Nodes), int64(MaxCost))
	}
	return nil
}

func (m NodeModel) recurrence(set *MulticastSet) (recurrence, error) {
	return recurrence{segs: 1, lat: m.Lambda, noRecv: true}, nil
}

var (
	_ CostModel = BaseModel{}
	_ CostModel = (*LinkModel)(nil)
	_ CostModel = PipelineModel{}
	_ CostModel = ReduceModel{}
	_ CostModel = BarrierModel{}
	_ CostModel = NodeModel{}
)
