package model

import "fmt"

// MoveKind discriminates the candidate move types the heuristic searches
// propose.
type MoveKind uint8

const (
	// MoveSwap exchanges the tree positions of two attached destinations
	// (Schedule.SwapNodes semantics: positions keep their parent, rank and
	// subtree; only the occupants change).
	MoveSwap MoveKind = iota
	// MoveRelocate detaches leaf A and appends it to the end of B's
	// children list (Schedule.RemoveLeaf + InsertChild-at-tail semantics:
	// A's later siblings shift one rank earlier).
	MoveRelocate
)

// Move is one candidate schedule edit to be scored by Engine.EvalMoves.
type Move struct {
	Kind MoveKind
	// A, B are the move operands: the two swapped destinations, or the
	// relocated leaf (A) and its new parent (B).
	A, B NodeID
}

// SwapMove returns a swap candidate for destinations a and b.
func SwapMove(a, b NodeID) Move { return Move{Kind: MoveSwap, A: a, B: b} }

// RelocateMove returns a relocate candidate: leaf appended under target.
func RelocateMove(leaf, target NodeID) Move {
	return Move{Kind: MoveRelocate, A: leaf, B: target}
}

// Engine is a structure-of-arrays evaluation engine for one schedule: the
// tree is flattened into BFS layer order with every parent's children
// stored contiguously, and delivery/reception times live in flat int64
// slices indexed by position instead of per-node fields. On top of the
// flat layout the engine keeps layer-local monotone aggregates — per-layer
// prefix and suffix running maxima of both time arrays, plus per-layer
// totals — so the completion time of a candidate move is the max of a
// re-walked subtree span and O(1) complement lookups, with no per-node
// log-factor tree refresh anywhere.
//
// The key property of the layout is that the descendants of any position
// form one contiguous span per layer (children of a contiguous parent
// range are themselves contiguous), so a subtree re-walk is a linear scan
// of at most two spans per layer and the untouched remainder of each layer
// is covered by the precomputed running maxima.
//
// Every cost model runs on this layout as a recurrence (see recurrence):
// the forward one re-walks the changed subtrees, M free times per
// position under the pipeline model; the reverse ready fold of reduce and
// barrier re-folds only the changed positions' ancestor chains.
//
// Usage: Attach builds (or rebuilds, reusing every buffer) the flat
// mirror of a schedule; EvalMoves scores candidate moves against it
// without mutating anything; after a move is actually applied to the
// schedule, Attach re-syncs. The zero value is ready for use. An Engine
// is not safe for concurrent use.
type Engine struct {
	treeShape // flat structure, indexed by position (BFS layer order)

	set *MulticastSet

	// The bound model's recurrence, set by Attach.
	fwd  fwdKind
	segs int       // forward width M
	L    int64     // uniform latency term (the node model's lambda)
	lat  [][]int64 // link model: per-pair latency, indexed by occupant
	rev  bool      // reverse ready fold (reduce, barrier)

	// Structure-of-arrays occupant overheads and times, by position.
	sendOf, recvOf []int64
	d, r           []int64 // delivery / reception

	// fwdRows: rows[p*M+s] is F[p][s], when p is free after receiving
	// segment s; ks[p] = k_p·send_p, the time p spends sending one segment
	// to all of its children. With M = 1 the row is r itself.
	rows, ks []int64
	// rev: ready[p] is when p has combined its subtree; done is ready[0]
	// and offsets DT and RT (0 without the reverse fold).
	ready []int64
	done  int64

	// Layer-local monotone aggregates. preX[j] is the running max of X
	// over [layerStart, j) within j's layer; sufX[j] the max over
	// [j, layerEnd). layMaxX[l] is layer l's max; layPreX[l] the max over
	// layers < l and laySufX[l] the max over layers >= l (one slot past
	// the last layer holds the empty suffix).
	preD, preR, sufD, sufR []int64
	layMaxD, layMaxR       []int64
	layPreD, layPreR       []int64
	laySufD, laySufR       []int64

	dt, rt int64 // forward completion times (0 without a forward recurrence)

	// Eval scratch: candidate reception times for re-walked positions,
	// validity-stamped so no per-move clearing is needed.
	newR  []int64
	stamp []uint32
	gen   uint32
	// fwdRows Eval scratch: candidate rows and deliveries of re-walked
	// positions (every position the walk reads was written by it first).
	newRows, newD []int64
	// rev Eval scratch: the positions re-folded in place and their
	// attached values, restored before Eval returns.
	undoPos []int32
	undoVal []int64

	// Critical-reception index read by Pinned, indexed by node and
	// rebuilt on the first query after the times change (Attach and
	// CommitSwap clear pinOK). pinTotal counts the critical positions,
	// those whose reception equals rt.
	pins     []pinStat
	pinTotal int32
	pinOK    bool
}

// pinStat is one node's entry in the critical-reception index, describing
// the subtree rooted at the node's position.
type pinStat struct {
	crit int32 // critical positions in the subtree
	tail int32 // critical positions in its own and its later siblings' subtrees
	// Preorder interval [pre, end) of the subtree: two subtrees overlap
	// only when one contains the other.
	pre, end int32
	up       int32 // the parent node, -1 for the root
}

// fwdKind selects the forward recurrence's child fill.
type fwdKind uint8

const (
	fwdNone fwdKind = iota // no forward recurrence (reduce)
	fwdBase                // M = 1 with a uniform latency: the paper's recurrence
	fwdLink                // M = 1 with per-pair latencies
	fwdRows                // M > 1: one row of M free times per position
)

// Attach (re)builds the engine's flat mirror of sch, reusing all internal
// buffers: after the first call at a given instance size it allocates
// nothing. Unattached destinations get position -1 and contribute zero
// times, matching the ComputeTimes convention.
//
// Attach adopts the schedule's bound cost model (Schedule.BindModel) and
// configures the recurrence from it: base, link and node run the M = 1
// forward recurrence (node with instantaneous receptions and lambda as
// the latency), pipeline the M-wide one, reduce the reverse ready fold
// alone and barrier both. A model that cannot be evaluated on the
// schedule's set (see EvalTimes, which reports it as an error) panics.
func (e *Engine) Attach(sch *Schedule) {
	cm := sch.Model()
	if IsBase(cm) {
		cm = BaseModel{}
	}
	rc, err := cm.recurrence(sch.Set)
	if err != nil {
		panic(fmt.Sprintf("model: Attach: %v", err))
	}
	e.attach(sch, rc)
}

// attach is Attach with the bound model's recurrence already derived.
func (e *Engine) attach(sch *Schedule, rc recurrence) {
	set := sch.Set
	n := len(set.Nodes)
	e.set = set
	e.segs, e.L, e.lat, e.rev = rc.segs, rc.lat, rc.links, rc.ready
	switch {
	case rc.segs == 0:
		e.fwd = fwdNone
	case rc.links != nil:
		e.fwd = fwdLink
	case rc.segs == 1:
		e.fwd = fwdBase
	default:
		e.fwd = fwdRows
	}

	e.treeShape.build(sch)
	e.sendOf = resizeInt64(e.sendOf, n)
	e.recvOf = resizeInt64(e.recvOf, n)
	e.d = resizeInt64(e.d, n)
	e.r = resizeInt64(e.r, n)
	e.newR = resizeInt64(e.newR, n)
	if cap(e.stamp) < n {
		e.stamp = make([]uint32, n, growCap(n))
		e.gen = 0
	}
	e.stamp = e.stamp[:n]

	// Occupant overheads as flat arrays (the SoA split of the old
	// array-of-structs Nodes access in the inner loops).
	for i := 0; i < e.m; i++ {
		nd := &set.Nodes[e.order[i]]
		e.sendOf[i] = nd.Send
		e.recvOf[i] = nd.Recv
		if rc.noRecv {
			e.recvOf[i] = 0
		}
	}

	e.dt, e.rt, e.done = 0, 0, 0
	e.pinOK = false
	switch e.fwd {
	case fwdBase, fwdLink:
		e.refreshTimes()
	case fwdRows:
		e.refreshRows()
	}
	if e.fwd != fwdNone {
		e.refreshAggregates(e.layers())
	}
	if e.rev {
		e.refreshReady()
	}
}

// refreshTimes recomputes the flat delivery/reception arrays in position
// order (parents precede children, so one forward pass suffices). The
// per-parent work is one kernChildTimes call: a bounds-check-free
// strength-reduced scan over contiguous children — no pointer chasing, no
// per-node dispatch. Under the link model the fill gathers each child's
// latency term from the parent occupant's matrix row instead.
func (e *Engine) refreshTimes() {
	e.d[0], e.r[0] = 0, 0
	if e.lat != nil {
		for i := 0; i < e.m; i++ {
			kl, kh := int(e.kidLo[i]), int(e.kidHi[i])
			if kl == kh {
				continue
			}
			wanChildTimes(e.d[kl:kh], e.r[kl:kh], e.recvOf[kl:kh], e.order[kl:kh], e.lat[e.order[i]], e.r[i], e.sendOf[i])
		}
		return
	}
	L := e.L
	for i := 0; i < e.m; i++ {
		kl, kh := int(e.kidLo[i]), int(e.kidHi[i])
		if kl == kh {
			continue
		}
		kernChildTimes(e.d[kl:kh], e.r[kl:kh], e.recvOf[kl:kh], e.r[i]+L, e.sendOf[i])
	}
}

// refreshRows is refreshTimes for the M-wide forward recurrence: the root
// row, then every other row by walkRows from the root.
func (e *Engine) refreshRows() {
	M := e.segs
	e.rows = resizeInt64(e.rows, e.m*M)
	e.newRows = resizeInt64(e.newRows, e.m*M)
	e.newD = resizeInt64(e.newD, e.m)
	e.ks = resizeInt64(e.ks, e.m)
	for p := 0; p < e.m; p++ {
		e.setKS(int32(p))
	}
	e.rootRow(e.rows)
	e.d[0], e.r[0] = 0, 0
	e.walkRows(e.rows, e.d, e.r, 0, -1, 0, 0)
}

// setKS re-derives position q's per-segment sending time from its child
// count and occupant.
func (e *Engine) setKS(q int32) {
	e.ks[q] = int64(e.kidHi[q]-e.kidLo[q]) * e.sendOf[q]
}

// rootRow writes the root's row into dst: the root receives nothing and
// starts sending segment s at s·k_0·send_0. Its own times stay 0.
func (e *Engine) rootRow(dst []int64) {
	row, step := dst[:e.segs], e.ks[0]
	for s := range row {
		row[s] = int64(s) * step
	}
}

// childRows fills the rows, deliveries and receptions of positions
// [lo, hi) — children of p at ranks first, first+1, ... — into f, d and r
// from p's row in src, and folds them into the running maxima.
func (e *Engine) childRows(f, d, r, src []int64, p int32, lo, hi int, first, movD, movR int64) (int64, int64) {
	M := e.segs
	sv := e.sendOf[p]
	pr := int(p) * M
	return kernChildRows(f[lo*M:hi*M], d[lo:hi], r[lo:hi], e.recvOf[lo:hi], e.ks[lo:hi], src[pr:pr+M], e.L+(first-1)*sv, sv, movD, movR)
}

// seedRow derives the candidate row of a re-walk root q into the Eval
// scratch. q's parent lies outside every changed subtree, so its attached
// row is current; the root's row depends only on its own staged ks.
func (e *Engine) seedRow(q int32, movD, movR int64) (int64, int64) {
	if q == 0 {
		e.rootRow(e.newRows)
		e.newD[0], e.newR[0] = 0, 0
		return movD, movR
	}
	return e.childRows(e.newRows, e.newD, e.newR, e.rows, e.parentPos[q], int(q), int(q)+1, e.rank[q], movD, movR)
}

// refreshReady folds the reverse ready times bottom-up: positions in
// descending order, so every child is final before its parent.
func (e *Engine) refreshReady() {
	e.ready = resizeInt64(e.ready, e.m)
	e.undoPos = resizeInt32(e.undoPos, e.m)
	e.undoVal = resizeInt64(e.undoVal, e.m)
	for p := e.m - 1; p >= 0; p-- {
		e.ready[p] = e.foldReady(int32(p), -1, -1)
	}
	e.done = e.ready[0]
}

// foldReady folds position p's children from the last rank to the first
// into p's ready time. A relocate leaves the child at position skip out
// (if it is p's) and appends the leaf at position app (if >= 0) as p's
// new last child, folded first.
func (e *Engine) foldReady(p, skip, app int32) int64 {
	L, rv := e.L, e.recvOf[p]
	busy := int64(0)
	if app >= 0 {
		busy = kernFoldReady(e.ready[app:app+1], e.sendOf[app:app+1], L, rv, 0)
	}
	kl, kh := int(e.kidLo[p]), int(e.kidHi[p])
	if s := int(skip); s >= kl && s < kh {
		busy = kernFoldReady(e.ready[s+1:kh], e.sendOf[s+1:kh], L, rv, busy)
		kh = s
	}
	return kernFoldReady(e.ready[kl:kh], e.sendOf[kl:kh], L, rv, busy)
}

// foldChains re-folds the ready times along the ancestor chains of
// positions qa and qb, in descending position order: BFS puts parents
// first, so each child is final before its parent folds, and a shared
// ancestor folds once. With leaf >= 0 the move is a relocate: qa is the
// leaf's old parent, which folds without it, and qb the target, which
// folds it in as its last child. Values are written in place; with undo
// the attached ones are logged and restored before returning. Returns the
// new ready[0].
func (e *Engine) foldChains(qa, qb, leaf int32, undo bool) int64 {
	po, pt := qa, qb
	nu := 0
	for qa >= 0 || qb >= 0 {
		p := max(qa, qb)
		skip, app := int32(-1), int32(-1)
		if leaf >= 0 {
			if p == po {
				skip = leaf
			}
			if p == pt {
				app = leaf
			}
		}
		v := e.foldReady(p, skip, app)
		if undo {
			e.undoPos[nu], e.undoVal[nu] = p, e.ready[p]
			nu++
		}
		e.ready[p] = v
		if qa == p {
			qa = e.parentPos[qa]
		}
		if qb == p {
			qb = e.parentPos[qb]
		}
	}
	done := e.ready[0]
	for i := 0; i < nu; i++ {
		e.ready[e.undoPos[i]] = e.undoVal[i]
	}
	return done
}

// deliveryAt recomputes position q's delivery from its parent's current
// reception under the link model. Rank and parent are determined by the
// position, but the latency term depends on both occupants, so staged
// occupant changes (evalSwap, CommitSwap) must re-derive it.
func (e *Engine) deliveryAt(q int32) int64 {
	pp := e.parentPos[q]
	return e.r[pp] + e.rank[q]*e.sendOf[pp] + e.lat[e.order[pp]][e.order[q]]
}

// refreshAggregates rebuilds the layer-local running maxima and the
// cross-layer prefix/suffix maxima from the current time arrays: a few
// contiguous forward/backward scans over the flat slices.
func (e *Engine) refreshAggregates(layers int) {
	e.preD = resizeInt64(e.preD, e.m)
	e.preR = resizeInt64(e.preR, e.m)
	e.sufD = resizeInt64(e.sufD, e.m)
	e.sufR = resizeInt64(e.sufR, e.m)
	e.layMaxD = resizeInt64(e.layMaxD, layers)
	e.layMaxR = resizeInt64(e.layMaxR, layers)
	e.layPreD = resizeInt64(e.layPreD, layers+1)
	e.layPreR = resizeInt64(e.layPreR, layers+1)
	e.laySufD = resizeInt64(e.laySufD, layers+1)
	e.laySufR = resizeInt64(e.laySufR, layers+1)

	for l := 0; l < layers; l++ {
		e.refreshLayerAggregates(l)
	}
	e.refreshCrossLayer(layers)
}

// refreshCrossLayer re-derives the cross-layer prefix/suffix maxima and
// the completion times from the per-layer maxima, in O(layers).
func (e *Engine) refreshCrossLayer(layers int) {
	preD, preR := int64(0), int64(0)
	for l := 0; l < layers; l++ {
		e.layPreD[l], e.layPreR[l] = preD, preR
		preD, preR = max(preD, e.layMaxD[l]), max(preR, e.layMaxR[l])
	}
	e.layPreD[layers], e.layPreR[layers] = preD, preR
	sufD, sufR := int64(0), int64(0)
	e.laySufD[layers], e.laySufR[layers] = 0, 0
	for l := layers - 1; l >= 0; l-- {
		sufD, sufR = max(sufD, e.layMaxD[l]), max(sufR, e.layMaxR[l])
		e.laySufD[l], e.laySufR[l] = sufD, sufR
	}
	e.dt, e.rt = sufD, sufR
}

// CommitSwap applies a swap of destinations a and b to the engine in
// place, to be used together with Schedule.SwapNodes(a, b) on the
// attached schedule. A swap leaves the tree shape invariant — positions
// keep their parent, rank and children span — so the occupant arrays
// exchange entries, the two subtrees' times are re-walked as contiguous
// spans (the occupant arrays already carry the new overheads, so the
// walk needs no overrides), and only the touched layers rebuild their
// running maxima; the cross-layer prefixes and suffixes refresh in
// O(layers). The ready fold re-folds the two ancestor chains.
// Acceptance-heavy loops (annealing) commit this way instead of paying
// Attach's pointer-heavy BFS rebuild.
//
//hnow:noalloc
func (e *Engine) CommitSwap(a, b NodeID) {
	qa, qb := e.pos[a], e.pos[b]
	if qa < 0 || qb < 0 {
		panic(fmt.Sprintf("model: CommitSwap of unattached node (%d, %d)", a, b))
	}
	if qa == qb {
		return
	}
	e.pinOK = false
	e.order[qa], e.order[qb] = b, a
	e.pos[a], e.pos[b] = qb, qa
	e.sendOf[qa], e.sendOf[qb] = e.sendOf[qb], e.sendOf[qa]
	e.recvOf[qa], e.recvOf[qb] = e.recvOf[qb], e.recvOf[qa]
	if e.rev {
		e.done = e.foldChains(qa, qb, -1, false)
	}
	if e.fwd == fwdNone {
		return
	}
	if e.fwd == fwdRows {
		e.setKS(qa)
		e.setKS(qb)
	}

	q1, q2 := qa, qb
	if e.layerOf[q1] > e.layerOf[q2] {
		q1, q2 = q2, q1
	}
	e.commitSeed(q1)
	pend := int32(-1)
	if !e.isAncestor(q1, q2) { // disjoint subtrees: q2 re-derives the same way
		pend = q2
		e.commitSeed(q2)
	}
	l := int(e.layerOf[q1])
	var lo, hi [2]int32
	ns := 1
	lo[0], hi[0] = q1, q1+1
	if pend >= 0 && int(e.layerOf[pend]) == l {
		ns = insertSpan(&lo, &hi, ns, pend)
		pend = -1
	}
	L := e.L
	for ns > 0 || pend >= 0 {
		if ns > 0 {
			e.refreshLayerAggregates(l)
		}
		var nlo, nhi [2]int32
		nns := 0
		for si := 0; si < ns; si++ {
			cs, ce := e.kidLo[lo[si]], e.kidHi[hi[si]-1]
			if cs >= ce {
				continue
			}
			if e.fwd != fwdRows { // rows were re-derived by commitSeed
				for p := lo[si]; p < hi[si]; p++ {
					kl, kh := int(e.kidLo[p]), int(e.kidHi[p])
					if kl == kh {
						continue
					}
					if e.lat != nil {
						wanChildTimes(e.d[kl:kh], e.r[kl:kh], e.recvOf[kl:kh], e.order[kl:kh], e.lat[e.order[p]], e.r[p], e.sendOf[p])
					} else {
						kernChildTimes(e.d[kl:kh], e.r[kl:kh], e.recvOf[kl:kh], e.r[p]+L, e.sendOf[p])
					}
				}
			}
			nlo[nns], nhi[nns] = cs, ce
			nns++
		}
		lo, hi, ns = nlo, nhi, nns
		l++
		if pend >= 0 && int(e.layerOf[pend]) == l {
			ns = insertSpan(&lo, &hi, ns, pend)
			pend = -1
		}
	}
	// Untouched layers kept their maxima; re-derive the cross-layer
	// prefix/suffix aggregates and the completion times.
	e.refreshCrossLayer(len(e.layerOff) - 1)
}

// commitSeed re-derives a swapped position's own times after its occupant
// changed. Base model: delivery is position-determined, so only the
// reception changes. Link model: the latency term depends on the new
// occupant, so the delivery re-derives too. Rows: the whole row
// re-derives from the parent's row, and so do the subtree's rows.
//
//hnow:noalloc
func (e *Engine) commitSeed(q int32) {
	switch e.fwd {
	case fwdBase:
		e.r[q] = e.d[q] + e.recvOf[q]
	case fwdLink:
		e.d[q] = e.deliveryAt(q)
		e.r[q] = e.d[q] + e.recvOf[q]
	default:
		e.childRows(e.rows, e.d, e.r, e.rows, e.parentPos[q], int(q), int(q)+1, e.rank[q], 0, 0)
		e.walkRows(e.rows, e.d, e.r, q, -1, 0, 0)
	}
}

// isAncestor reports whether q1 is q2 or an ancestor of it; q1's layer
// must not be deeper than q2's.
func (e *Engine) isAncestor(q1, q2 int32) bool {
	for e.layerOf[q2] > e.layerOf[q1] {
		q2 = e.parentPos[q2]
	}
	return q2 == q1
}

// refreshLayerAggregates rebuilds one layer's running maxima from the
// current time arrays: one forward and one backward kernel pass over the
// layer's contiguous position range.
func (e *Engine) refreshLayerAggregates(l int) {
	s, t := int(e.layerOff[l]), int(e.layerOff[l+1])
	d, r := e.d[s:t], e.r[s:t]
	e.layMaxD[l], e.layMaxR[l] = kernPrefixMax2(e.preD[s:t], e.preR[s:t], d, r)
	kernSuffixMax2(e.sufD[s:t], e.sufR[s:t], d, r)
}

// DT returns the delivery completion time of the attached schedule.
func (e *Engine) DT() int64 { return e.dt + e.done }

// RT returns the reception completion time of the attached schedule, the
// objective the paper minimizes.
func (e *Engine) RT() int64 { return e.rt + e.done }

// TimesInto writes the attached schedule's times into tm in node index
// order, with the per-node semantics documented on the bound cost model
// (unattached nodes get zero times, or the barrier offset). It reuses
// tm's buffers and allocates nothing after warmup.
func (e *Engine) TimesInto(tm *Times) {
	n := len(e.set.Nodes)
	tm.Delivery = resizeInt64(tm.Delivery, n)
	tm.Reception = resizeInt64(tm.Reception, n)
	if e.m < n {
		for i := range tm.Delivery {
			tm.Delivery[i] = 0
			tm.Reception[i] = 0
		}
	}
	if e.fwd == fwdNone { // reduce: both times carry the ready time
		for j := 0; j < e.m; j++ {
			v := e.order[j]
			tm.Delivery[v] = e.ready[j]
			tm.Reception[v] = e.ready[j]
		}
	} else {
		for j := 0; j < e.m; j++ {
			v := e.order[j]
			tm.Delivery[v] = e.d[j]
			tm.Reception[v] = e.r[j]
		}
		if e.rev { // barrier: every node waits for the reduce
			for i := range tm.Delivery {
				tm.Delivery[i] += e.done
				tm.Reception[i] += e.done
			}
		}
	}
	tm.DT, tm.RT = e.DT(), e.RT()
}

// EvalMoves scores a batch of candidate moves against the attached
// schedule in one pass over the flat arrays: out[i] receives the
// reception completion time the schedule would have after moves[i]. No
// move is applied; the engine, schedule and aggregates are unchanged, so
// there is nothing to undo and the whole neighborhood shares the
// aggregates built by the last Attach. len(out) must equal len(moves).
// Steady-state the call allocates nothing.
//
// Move operands must be currently attached (and, for MoveRelocate, A must
// be a leaf and B must not be A), mirroring the preconditions of the
// schedule edits they model.
//
//hnow:noalloc
func (e *Engine) EvalMoves(moves []Move, out []int64) {
	if len(moves) != len(out) {
		panic(fmt.Sprintf("model: EvalMoves: %d moves, %d output slots", len(moves), len(out)))
	}
	for i, mv := range moves {
		_, out[i] = e.Eval(mv)
	}
}

// Eval scores a single candidate move, returning the delivery and
// reception completion times the schedule would have after it. See
// EvalMoves for the preconditions.
//
//hnow:noalloc
func (e *Engine) Eval(mv Move) (dt, rt int64) {
	switch mv.Kind {
	case MoveSwap:
		return e.evalSwap(mv.A, mv.B)
	case MoveRelocate:
		return e.evalRelocate(mv.A, mv.B)
	default:
		panic(fmt.Sprintf("model: Eval: unknown move kind %d", mv.Kind))
	}
}

// Pinned reports that mv cannot lower RT: it leaves unchanged the
// reception time of at least one critical position (one whose reception
// equals RT), so the RT Eval(mv) returns is at least RT(). The positions
// a move re-times are the ones Eval re-walks: the subtrees of both swapped
// positions; for a relocation under M = 1 the leaf and the subtrees of its
// later siblings, which move one rank earlier; and under the M-wide rows
// the subtrees of the leaf's old parent and of the target, whose child
// counts change. Under the reverse ready fold (reduce, barrier) any move
// can shift the fold that offsets every time, so Pinned is always false
// there. False is always a sound answer; a move naming an unattached node
// gets it.
//
// The first query after Attach or CommitSwap rebuilds the index in O(n);
// each query is then O(1). The preconditions are Eval's.
//
//hnow:noalloc
func (e *Engine) Pinned(mv Move) bool {
	if !e.pinOK {
		e.refreshPins()
	}
	pins := e.pins
	if uint(mv.A) >= uint(len(pins)) || uint(mv.B) >= uint(len(pins)) {
		return false // the reverse fold's index is empty
	}
	x, y := &pins[mv.A], &pins[mv.B]
	switch mv.Kind {
	case MoveSwap:
	case MoveRelocate:
		if e.fwd != fwdRows {
			return e.pinTotal > x.tail
		}
		up := int(x.up)
		if uint(up) >= uint(len(pins)) {
			return false
		}
		x = &pins[up] // the leaf's old parent
	default:
		return false
	}
	// Critical positions in the union of the two subtrees.
	in := x.crit + y.crit
	if in >= e.pinTotal && x.pre < y.end && y.pre < x.end {
		in = max(x.crit, y.crit) // nested
	}
	return e.pinTotal > in
}

// refreshPins rebuilds the critical-reception index in two passes over
// the flat layout: subtree counts and sizes bottom-up (descending
// positions put children before parents), then preorder intervals and
// sibling suffix sums top-down, each parent's children being contiguous.
// An unattached node's entry counts every critical position, so no move
// naming it is pinned. Under the reverse fold the index is empty.
func (e *Engine) refreshPins() {
	e.pinOK = true
	if e.rev || e.fwd == fwdNone {
		e.pins = e.pins[:0]
		return
	}
	n, m, order := len(e.pos), e.m, e.order
	if cap(e.pins) < n {
		e.pins = make([]pinStat, n, growCap(n))
	}
	pins := e.pins[:n]
	e.pins = pins
	for q := 0; q < m; q++ {
		st := pinStat{end: 1, up: -1} // end holds the subtree size until the second pass
		if e.r[q] == e.rt {
			st.crit = 1
		}
		if q > 0 {
			st.up = int32(order[e.parentPos[q]])
		}
		pins[order[q]] = st
	}
	for q := m - 1; q > 0; q-- {
		v := &pins[order[q]]
		p := &pins[v.up]
		p.crit += v.crit
		p.end += v.end
	}
	root := &pins[order[0]]
	root.tail = root.crit
	for p := 0; p < m; p++ {
		kl, kh := e.kidLo[p], e.kidHi[p]
		next := pins[order[p]].pre + 1
		for k := kl; k < kh; k++ {
			st := &pins[order[k]]
			size := st.end
			st.pre, st.end = next, next+size
			next += size
		}
		tail := int32(0)
		for k := kh - 1; k >= kl; k-- {
			st := &pins[order[k]]
			tail += st.crit
			st.tail = tail
		}
	}
	total := root.crit
	e.pinTotal = total
	for v, q := range e.pos {
		if q < 0 {
			pins[v] = pinStat{crit: total, tail: total, up: -1}
		}
	}
}

// nextGen advances the scratch stamp, clearing it on wraparound.
func (e *Engine) nextGen() uint32 {
	e.gen++
	if e.gen == 0 {
		for i := range e.stamp {
			e.stamp[i] = 0
		}
		e.gen = 1
	}
	return e.gen
}

// evalSwap scores exchanging the positions of destinations a and b. The
// tree shape is invariant under a swap — only the occupants of the two
// positions change — so the affected positions are exactly the two
// subtrees (one, when nested), walked as contiguous spans per layer, and
// the two ancestor chains of the ready fold.
//
// Instead of threading occupant overrides through the walk (a per-child
// branch on node metadata in the hottest loop), the post-swap overheads
// are staged directly into the flat sendOf/recvOf arrays and swapped back
// after the walk: the walk itself is then identical to the no-override
// case and every inner loop stays branch-free. The engine is documented
// as not safe for concurrent use, so the transient staging is invisible
// to callers.
func (e *Engine) evalSwap(a, b NodeID) (int64, int64) {
	if a == b {
		return e.DT(), e.RT()
	}
	q1, q2 := e.pos[a], e.pos[b]
	if q1 < 0 || q2 < 0 {
		panic(fmt.Sprintf("model: Eval: swap of unattached node (%d, %d)", a, b))
	}
	if e.layerOf[q1] > e.layerOf[q2] {
		q1, q2 = q2, q1
	}
	e.stageSwap(q1, q2)
	dt, rt := e.dt, e.rt
	switch e.fwd {
	case fwdBase, fwdLink:
		nested := e.isAncestor(q1, q2)
		gen := e.nextGen()
		// Base model: q1's delivery is position-determined, hence
		// unchanged. Link model: the incoming latency depends on the
		// staged occupant, so the seed delivery re-derives from the
		// parent's current reception.
		d1 := e.d[q1]
		if e.lat != nil {
			d1 = e.deliveryAt(q1)
		}
		movD := d1
		e.newR[q1] = d1 + e.recvOf[q1]
		e.stamp[q1] = gen
		movR := e.newR[q1]
		pend := int32(-1)
		if !nested {
			pend = q2
			d2 := e.d[q2]
			if e.lat != nil {
				d2 = e.deliveryAt(q2)
			}
			e.newR[q2] = d2 + e.recvOf[q2]
			e.stamp[q2] = gen
			movD = max(movD, d2)
			movR = max(movR, e.newR[q2])
		}
		dt, rt = e.walkSpansBounds(q1, q1+1, pend, gen, movD, movR)
	case fwdRows:
		dt, rt = e.swapRows(q1, q2)
	}
	done := e.done
	if e.rev {
		done = e.foldChains(q1, q2, -1, true)
	}
	e.stageSwap(q1, q2) // the engine must be left exactly as attached
	return dt + done, rt + done
}

// stageSwap exchanges the occupant overheads of positions q1 and q2 (and,
// under the link model, the occupants — latency terms are
// occupant-dependent). It is its own inverse.
func (e *Engine) stageSwap(q1, q2 int32) {
	e.sendOf[q1], e.sendOf[q2] = e.sendOf[q2], e.sendOf[q1]
	e.recvOf[q1], e.recvOf[q2] = e.recvOf[q2], e.recvOf[q1]
	if e.lat != nil {
		e.order[q1], e.order[q2] = e.order[q2], e.order[q1]
	}
}

// swapRows scores the M-wide forward recurrence of a staged swap: the
// sending times re-derive from the staged occupants, then the one or two
// subtrees re-walk from their seed rows.
func (e *Engine) swapRows(q1, q2 int32) (int64, int64) {
	k1, k2 := e.ks[q1], e.ks[q2]
	e.setKS(q1)
	e.setKS(q2)
	dt, rt := e.rowsBounds(q1, q2, -1)
	e.ks[q1], e.ks[q2] = k1, k2
	return dt, rt
}

// rowsBounds scores the M-wide forward recurrence once the rows of
// positions q1 and q2 (q1 not deeper) have changed: it re-derives both
// subtrees (one, when nested), leaving the relocated leaf at position
// skip out of its parent's children, and combines them with the layer
// aggregates of the untouched complement.
func (e *Engine) rowsBounds(q1, q2, skip int32) (int64, int64) {
	movD, movR := e.seedRow(q1, 0, 0)
	movD, movR = e.walkRows(e.newRows, e.newD, e.newR, q1, skip, movD, movR)
	pend := int32(-1)
	if !e.isAncestor(q1, q2) {
		pend = q2
		movD, movR = e.seedRow(q2, movD, movR)
		movD, movR = e.walkRows(e.newRows, e.newD, e.newR, q2, skip, movD, movR)
	}
	return e.walkSpansBounds(q1, q1+1, pend, 0, movD, movR)
}

// evalRelocate scores detaching leaf and appending it under target. Under
// the M = 1 forward recurrence the affected positions are the leaf's
// later siblings (one rank earlier) and their subtrees; the leaf's vacated
// position is excluded from the complement and its value at the new
// position is added separately once the walk has fixed its new parent's
// reception.
func (e *Engine) evalRelocate(leaf, target NodeID) (int64, int64) {
	pl, pt := e.pos[leaf], e.pos[target]
	if pl < 0 || pt < 0 || leaf == target {
		panic(fmt.Sprintf("model: Eval: invalid relocate (%d -> %d)", leaf, target))
	}
	po := e.parentPos[pl]
	if po < 0 {
		panic(fmt.Sprintf("model: Eval: relocate of the root or an unattached node %d", leaf))
	}
	if e.kidLo[pl] != e.kidHi[pl] {
		panic(fmt.Sprintf("model: Eval: relocate of non-leaf %d", leaf))
	}
	dt, rt := e.dt, e.rt
	switch e.fwd {
	case fwdBase, fwdLink:
		gen := e.nextGen()
		// Seed the later siblings with their rank-shifted times; the
		// vacated leaf position contributes nothing (and is childless, so
		// the walk skips it naturally). Each sibling moves one rank
		// earlier, so its delivery is the predecessor's old delivery: a
		// strength-reduced kernel scan starting from the vacated rank.
		movD, movR := int64(0), int64(0)
		L := e.L
		rp, sv := e.r[po], e.sendOf[po]
		sibLo, sibHi := int(pl)+1, int(e.kidHi[po])
		if sibLo < sibHi {
			if e.lat != nil {
				// Each later sibling moves one rank earlier: its delivery
				// drops by exactly one send slot and its occupant-dependent
				// latency term is unchanged, so shift the existing times.
				for j := sibLo; j < sibHi; j++ {
					dj := e.d[j] - sv
					rj := dj + e.recvOf[j]
					e.newR[j] = rj
					e.stamp[j] = gen
					movD = max(movD, dj)
					movR = max(movR, rj)
				}
			} else {
				base := rp + (e.rank[pl]-1)*sv + L
				movD, movR = kernChildCand(e.newR[sibLo:sibHi], e.recvOf[sibLo:sibHi], e.stamp[sibLo:sibHi], gen, base, sv, movD, movR)
			}
		}
		dt, rt = e.walkSpansBounds(pl, e.kidHi[po], -1, gen, movD, movR)
		// The leaf's contribution at its new position: appended after
		// target's current children (one fewer if the target is the old
		// parent itself, which just lost the leaf).
		rt2 := e.r[pt]
		if e.stamp[pt] == gen {
			rt2 = e.newR[pt]
		}
		cnt := int64(e.kidHi[pt] - e.kidLo[pt])
		if pt == po {
			cnt--
		}
		dd := rt2 + (cnt+1)*e.sendOf[pt]
		if e.lat != nil {
			dd += e.lat[e.order[pt]][e.order[pl]]
		} else {
			dd += L
		}
		dt, rt = max(dt, dd), max(rt, dd+e.recvOf[pl])
	case fwdRows:
		dt, rt = e.relocateRows(pl, po, pt)
	}
	done := e.done
	if e.rev {
		done = e.foldChains(po, pt, pl, true)
	}
	return dt + done, rt + done
}

// relocateRows is the M-wide forward relocate. The old parent loses a
// child and the target gains one, so both rows change (F[p][s] carries
// k_p·send_p for s >= 1) and both subtrees re-walk, as in a disjoint or
// nested swap; the walk leaves the leaf out of its old parent's children,
// and the leaf's row is derived last from the target's new row.
func (e *Engine) relocateRows(pl, po, pt int32) (int64, int64) {
	e.ks[po] -= e.sendOf[po]
	e.ks[pt] += e.sendOf[pt]
	q1, q2 := po, pt
	if e.layerOf[q1] > e.layerOf[q2] {
		q1, q2 = q2, q1
	}
	dt, rt := e.rowsBounds(q1, q2, pl)
	cnt := int64(e.kidHi[pt] - e.kidLo[pt])
	if pt == po {
		cnt--
	}
	// The leaf's own scratch slots are free: the walk skipped it.
	dt, rt = e.childRows(e.newRows, e.newD, e.newR, e.newRows, pt, int(pl), int(pl)+1, cnt+1, dt, rt)
	e.ks[po] += e.sendOf[po]
	e.ks[pt] -= e.sendOf[pt]
	return dt, rt
}

// walkSpansBounds re-walks the descendants of the top span [lo0, hi0)
// (plus, for disjoint swaps, the pending second root) layer by layer,
// computing candidate times for every affected position into the stamped
// scratch, and combines the running maxima of the walked values with the
// layer aggregates of the untouched complement. Candidate occupant
// overheads must already be staged in sendOf/recvOf (see evalSwap), so
// the per-layer expansion is a pure kernel scan with no per-child
// branches. Under the M-wide recurrence walkRows has already derived the
// walked rows into movD and movR, and the walk only gathers the
// complement. Returns the candidate (DT, RT).
func (e *Engine) walkSpansBounds(lo0, hi0, pend int32, gen uint32, movD, movR int64) (int64, int64) {
	L := e.L
	l := int(e.layerOf[lo0])
	complD, complR := e.layPreD[l], e.layPreR[l]
	var lo, hi [2]int32
	ns := 1
	lo[0], hi[0] = lo0, hi0
	if pend >= 0 && int(e.layerOf[pend]) == l {
		ns = insertSpan(&lo, &hi, ns, pend)
		pend = -1
	}
	for ns > 0 || pend >= 0 {
		s, t := e.layerOff[l], e.layerOff[l+1]
		// Complement within this layer: the untouched prefix, the gap
		// between two disjoint spans (a direct scan of existing values),
		// and the untouched suffix.
		if ns == 0 {
			complD = max(complD, e.layMaxD[l])
			complR = max(complR, e.layMaxR[l])
		} else {
			if lo[0] > s {
				complD = max(complD, e.preD[lo[0]])
				complR = max(complR, e.preR[lo[0]])
			}
			if ns == 2 && hi[0] < lo[1] {
				complD, complR = kernMax2(e.d[hi[0]:lo[1]], e.r[hi[0]:lo[1]], complD, complR)
			}
			if last := hi[ns-1]; last < t {
				complD = max(complD, e.sufD[last])
				complR = max(complR, e.sufR[last])
			}
		}
		// Expand each span into its children span on the next layer,
		// deriving child times from the stamped parent receptions.
		var nlo, nhi [2]int32
		nns := 0
		for si := 0; si < ns; si++ {
			cs, ce := e.kidLo[lo[si]], e.kidHi[hi[si]-1]
			if cs >= ce {
				continue
			}
			if e.fwd != fwdRows { // rows were derived by walkRows beforehand
				for p := lo[si]; p < hi[si]; p++ {
					kl, kh := int(e.kidLo[p]), int(e.kidHi[p])
					if kl == kh {
						continue
					}
					if e.lat != nil {
						movD, movR = wanChildCand(e.newR[kl:kh], e.recvOf[kl:kh], e.stamp[kl:kh], e.order[kl:kh], e.lat[e.order[p]], gen, e.newR[p], e.sendOf[p], movD, movR)
					} else {
						movD, movR = kernChildCand(e.newR[kl:kh], e.recvOf[kl:kh], e.stamp[kl:kh], gen, e.newR[p]+L, e.sendOf[p], movD, movR)
					}
				}
			}
			nlo[nns], nhi[nns] = cs, ce
			nns++
		}
		lo, hi, ns = nlo, nhi, nns
		l++
		if pend >= 0 && int(e.layerOf[pend]) == l {
			ns = insertSpan(&lo, &hi, ns, pend)
			pend = -1
		}
	}
	complD = max(complD, e.laySufD[l])
	complR = max(complR, e.laySufR[l])
	return max(complD, movD), max(complR, movR)
}

// walkRows derives the rows of q's descendants from q's row, layer by
// layer (the children of a contiguous span are a contiguous span),
// reading and writing f, d and r: the Eval scratch or the attached
// arrays. A relocated leaf at position skip leaves its parent's children,
// and its later siblings move one rank earlier.
func (e *Engine) walkRows(f, d, r []int64, q, skip int32, movD, movR int64) (int64, int64) {
	for lo, hi := q, q+1; lo < hi; lo, hi = e.kidLo[lo], e.kidHi[hi-1] {
		for p := lo; p < hi; p++ {
			kl, kh := int(e.kidLo[p]), int(e.kidHi[p])
			if kl == kh {
				continue
			}
			first := int64(1)
			if s := int(skip); s >= kl && s < kh {
				movD, movR = e.childRows(f, d, r, f, p, kl, s, 1, movD, movR)
				kl, first = s+1, int64(s-kl+1)
			}
			movD, movR = e.childRows(f, d, r, f, p, kl, kh, first, movD, movR)
		}
	}
	return movD, movR
}

// insertSpan adds the single-position span [p, p+1) to the ordered span
// set. Disjoint subtrees produce at most two spans per layer, so ns never
// exceeds 2.
func insertSpan(lo, hi *[2]int32, ns int, p int32) int {
	if ns == 1 && p < lo[0] {
		lo[1], hi[1] = lo[0], hi[0]
		lo[0], hi[0] = p, p+1
		return 2
	}
	lo[ns], hi[ns] = p, p+1
	return ns + 1
}

// resizeInt32 returns s with length n, reusing capacity when possible and
// rounding fresh allocations up to a power of two (see resizeInt64).
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, growCap(n))
	}
	return s[:n]
}

// resizeNodeID is resizeInt32 for NodeID slices.
func resizeNodeID(s []NodeID, n int) []NodeID {
	if cap(s) < n {
		return make([]NodeID, n, growCap(n))
	}
	return s[:n]
}
