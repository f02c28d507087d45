package model

import "fmt"

// CostModel abstracts the objective a schedule tree is scored under. The
// base receive-send model of the paper is one point in a family its
// references span: per-link WAN latencies, M-segment pipelined streaming,
// the reverse-tree collectives (reduce, barrier) and the node model. A
// CostModel evaluates a Schedule's shape into Times (EvalInto, the
// from-scratch definition) and describes itself to the Engine as a
// recurrence over the flat BFS layout (a forward recurrence M segments
// wide, a reverse ready fold, or both), so every model is scored move by
// move with the same incremental subtree walk. Each scenario package
// retains its own ad-hoc evaluator as the bit-level parity oracle for the
// implementations here.
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
	// EvalInto evaluates sch under the model, writing per-node times and
	// the DT/RT objectives into tm (reusing its buffers). The semantics
	// of the per-node arrays are model-specific and documented on each
	// implementation; RT is always the objective to minimize.
	EvalInto(sch *Schedule, tm *Times) error
	// TypeSymmetric reports whether two destinations with equal
	// (Send, Recv) overheads are interchangeable under the model — i.e.
	// swapping their tree positions can never change any time. Search
	// heuristics prune same-type swaps only when this holds; the link
	// model returns false (latency rows distinguish equal-overhead
	// nodes).
	TypeSymmetric() bool
	// recurrence returns the Engine configuration that reproduces
	// EvalInto on set.
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

// EvalInto implements CostModel via ComputeTimesInto.
func (BaseModel) EvalInto(sch *Schedule, tm *Times) error {
	computeBaseTimesInto(sch, tm)
	return nil
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
// ComputeTimesInto.
func EvalTimes(sch *Schedule, tm *Times) error {
	if cm := sch.Model(); !IsBase(cm) {
		return cm.EvalInto(sch, tm)
	}
	computeBaseTimesInto(sch, tm)
	return nil
}

// LinkModel scores schedules against a per-ordered-pair latency matrix
// (the WAN direction of the paper's reference [5], Bhat, Raghavendra and
// Prasanna): the i-th child w of v is delivered at r(v) + i*osend(v) +
// Lat[v][w]. Reference oracle: wan.Topology.ComputeTimes.
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

// EvalInto implements CostModel. Delivery/Reception carry the usual
// receive-send semantics with the per-pair latency term.
func (m *LinkModel) EvalInto(sch *Schedule, tm *Times) error {
	n := len(sch.Set.Nodes)
	if len(m.Lat) != n {
		return fmt.Errorf("model: latency matrix sized for %d nodes, set has %d", len(m.Lat), n)
	}
	tm.Delivery = resizeInt64(tm.Delivery, n)
	tm.Reception = resizeInt64(tm.Reception, n)
	for i := range tm.Delivery {
		tm.Delivery[i] = 0
		tm.Reception[i] = 0
	}
	tm.DT, tm.RT = 0, 0
	stack := append(tm.stack[:0], 0)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rv := tm.Reception[v]
		sv := sch.Set.Nodes[v].Send
		row := m.Lat[v]
		for i, w := range sch.children[v] {
			d := rv + int64(i+1)*sv + row[w]
			tm.Delivery[w] = d
			tm.Reception[w] = d + sch.Set.Nodes[w].Recv
			if d > tm.DT {
				tm.DT = d
			}
			if tm.Reception[w] > tm.RT {
				tm.RT = tm.Reception[w]
			}
			stack = append(stack, w)
		}
	}
	tm.stack = stack[:0]
	return nil
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
// Reference oracle: pipeline.Times.
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

// EvalInto implements CostModel. The tree is processed in BFS order: a
// node's whole op sequence recv(1), send(1, kids...), recv(2), ...
// depends only on its own per-segment arrivals, which depend only on its
// parent's sequence.
func (m PipelineModel) EvalInto(sch *Schedule, tm *Times) error {
	if err := CheckSegments(m.Segments); err != nil {
		return err
	}
	set := sch.Set
	n := len(set.Nodes)
	segs := m.Segments
	tm.Delivery = resizeInt64(tm.Delivery, n)
	tm.Reception = resizeInt64(tm.Reception, n)
	for i := range tm.Delivery {
		tm.Delivery[i] = 0
		tm.Reception[i] = 0
	}
	tm.DT, tm.RT = 0, 0
	// arrive[v*segs+m] is when segment m is fully delivered to v. The
	// flat scratch lives in tm so engines reuse it across evaluations.
	tm.aux = resizeInt64(tm.aux, n*segs)
	arrive := tm.aux
	// BFS order reusing the stack scratch as a queue.
	order := append(tm.stack[:0], 0)
	for i := 0; i < len(order); i++ {
		order = append(order, sch.children[order[i]]...)
	}
	L := set.Latency
	for _, v := range order {
		free := int64(0)
		kids := sch.children[v]
		sv := set.Nodes[v].Send
		av := arrive[int(v)*segs:]
		for seg := 0; seg < segs; seg++ {
			if v != 0 {
				start := free
				if av[seg] > start {
					start = av[seg]
				}
				free = start + set.Nodes[v].Recv
				if seg == 0 {
					tm.Delivery[v] = av[seg]
				}
				tm.Reception[v] = free
			}
			for _, c := range kids {
				free += sv
				arrive[int(c)*segs+seg] = free + L
			}
		}
	}
	for v := 1; v < n; v++ {
		if tm.Delivery[v] > tm.DT {
			tm.DT = tm.Delivery[v]
		}
		if tm.Reception[v] > tm.RT {
			tm.RT = tm.Reception[v]
		}
	}
	tm.stack = order[:0]
	return nil
}

// ReduceModel runs the tree in reverse (gather-combine toward the root):
// leaves start at 0 and each parent absorbs its children's contributions
// in reverse delivery order, paying the child's sending overhead at the
// child and its own receiving overhead per message. Delivery[v] and
// Reception[v] both carry Ready[v], the time v has combined its subtree;
// RT = DT = Ready[root], the reduce completion. Reference oracle:
// collective.Reduce.
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

// EvalInto implements CostModel.
func (ReduceModel) EvalInto(sch *Schedule, tm *Times) error {
	n := len(sch.Set.Nodes)
	tm.Delivery = resizeInt64(tm.Delivery, n)
	tm.Reception = resizeInt64(tm.Reception, n)
	reduceReadyInto(sch, tm.Reception, &tm.stack)
	copy(tm.Delivery, tm.Reception)
	tm.DT, tm.RT = tm.Reception[0], tm.Reception[0]
	return nil
}

// reduceReadyInto computes the reverse-tree ready times into ready
// (len(set.Nodes) entries; unattached nodes get 0), iteratively: children
// precede parents in reverse BFS order, so one backward pass folds each
// node's children in reverse delivery order. Shared by ReduceModel and
// BarrierModel; parity-pinned to collective.Reduce's recursive
// definition.
func reduceReadyInto(sch *Schedule, ready []int64, scratch *[]NodeID) {
	set := sch.Set
	for i := range ready {
		ready[i] = 0
	}
	order := append((*scratch)[:0], 0)
	for i := 0; i < len(order); i++ {
		order = append(order, sch.children[order[i]]...)
	}
	L := set.Latency
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		kids := sch.children[v]
		if len(kids) == 0 {
			continue
		}
		busy := int64(0)
		rv := set.Nodes[v].Recv
		for j := len(kids) - 1; j >= 0; j-- {
			c := kids[j]
			arrive := ready[c] + set.Nodes[c].Send + L
			if arrive < busy {
				arrive = busy
			}
			busy = arrive + rv
		}
		ready[v] = busy
	}
	*scratch = order[:0]
}

// BarrierModel is a reduce followed by a broadcast on the same tree:
// every per-node time is the base-model time offset by the reduce
// completion (the broadcast starts when the root has absorbed every
// contribution), so RT = reduce.Done + broadcast RT. Reference oracle:
// collective.BarrierRT.
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

// EvalInto implements CostModel.
func (BarrierModel) EvalInto(sch *Schedule, tm *Times) error {
	computeBaseTimesInto(sch, tm)
	n := len(sch.Set.Nodes)
	tm.aux = resizeInt64(tm.aux, n)
	reduceReadyInto(sch, tm.aux, &tm.stack)
	done := tm.aux[0]
	for i := range tm.Delivery {
		tm.Delivery[i] += done
		tm.Reception[i] += done
	}
	tm.DT += done
	tm.RT += done
	return nil
}

// NodeModel is the single-parameter per-node cost family the paper's
// references [2]/[9] span (postal and node models): the i-th child w of v
// is delivered at r(v) + i*c(v) + Lambda where c(v) is v's Send overhead
// and reception is instantaneous (Recv is ignored). Lambda = 0 is the
// pure node model of package nodemodel; c == 1 recovers the postal model
// with latency Lambda. Reference oracles: nodemodel.Instance.Times and
// postal.Tree.CompletionTime.
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

// EvalInto implements CostModel. Reception equals Delivery (no receive
// overhead), so RT = DT.
func (m NodeModel) EvalInto(sch *Schedule, tm *Times) error {
	set := sch.Set
	n := len(set.Nodes)
	tm.Delivery = resizeInt64(tm.Delivery, n)
	tm.Reception = resizeInt64(tm.Reception, n)
	for i := range tm.Delivery {
		tm.Delivery[i] = 0
		tm.Reception[i] = 0
	}
	tm.DT, tm.RT = 0, 0
	stack := append(tm.stack[:0], 0)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rv := tm.Reception[v]
		cv := set.Nodes[v].Send
		for i, w := range sch.children[v] {
			d := rv + int64(i+1)*cv + m.Lambda
			tm.Delivery[w] = d
			tm.Reception[w] = d
			if d > tm.DT {
				tm.DT = d
			}
			stack = append(stack, w)
		}
	}
	tm.RT = tm.DT
	tm.stack = stack[:0]
	return nil
}

var (
	_ CostModel = BaseModel{}
	_ CostModel = (*LinkModel)(nil)
	_ CostModel = PipelineModel{}
	_ CostModel = ReduceModel{}
	_ CostModel = BarrierModel{}
	_ CostModel = NodeModel{}
)
