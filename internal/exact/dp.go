// Package exact computes optimal multicast schedules in the heterogeneous
// receive-send model.
//
// The centerpiece is the dynamic program of Section 4 of the paper
// (Lemma 4 / Theorem 2): for a network with k distinct workstation types,
// T(s, i1..ik) -- the minimum reception completion time of a multicast from
// a source of type s to ij nodes of type j -- satisfies
//
//	T(s, 0, ..., 0) = 0
//	T(s, i) = min over types l with i_l >= 1, over splits y <= i - e_l of
//	          max( T(l, y) + S(s) + L + R(l),
//	               T(s, i - y - e_l) + S(s) )
//
// which the DP evaluates in O(n^(2k)) for fixed k. As Theorem 2's closing
// remark suggests, a DP is filled whole, once: every state of the
// network's table, after which every multicast drawn from the network is
// a constant-time lookup (Table). The package also rebuilds an optimal
// schedule from the DP values alone, and provides a pruned brute-force
// enumerator used as an independent ground-truth oracle for small
// instances.
//
// The solver is iterative and layered rather than recursive: every split
// in the recurrence strictly reduces the total destination count, so the
// states are evaluated bottom-up by total, layer t depending only on
// layers < t. One loop, fillLayers, walks the layers for every fill,
// filling each layer inline or sharding it across a worker pool
// (FillAllParallel). The layering also enables the split pruning
// evalState documents: sound block-skip bounds from nested prefix minima
// — the pivot axis alone, then the pivot plus ever-longer prefixes of the
// remaining axes — that let the outer odometer skip whole subranges of
// dominated splits, plus crossover binary search on networks whose filled
// layers verify monotone (T is NOT monotone in the count vector in
// general — an extra fast relay node can lower the optimum — so that last
// fast path is guarded at runtime; the prefix-minimum bounds are exact
// box minima and need no guard).
//
// The crossover search pays on top of the cascade: on balanced n=48, k=3
// networks that verify monotone it leaves the examined column count
// unchanged — the cascade decides which columns are visited — but
// binary-searches each visited column, cutting their mean sequential fill
// time by about two fifths. Not every such network verifies: 40 of the
// cluster generator's first 60 balanced n=48 draws drop the flag partway
// through the fill and scan columns exhaustively from there on.
package exact

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/model"
)

// MaxStates bounds the DP state space (k * prod(n_j+1)); New returns an
// error beyond it. The default admits e.g. k=4 with ~120 nodes per type.
const MaxStates = 1 << 26

// Type is a distinct workstation type: a (send, recv) overhead pair.
type Type struct {
	Send, Recv int64
}

// DP is the Lemma 4 dynamic program for one network (a fixed latency and
// inventory of node types). It is filled once, by FillAll or
// FillAllParallel (which coordinates its own workers), and is read-only
// from then on; FinishTable seals it into a Table.
type DP struct {
	latency int64
	types   []Type // sorted by (Send, Recv), all distinct
	counts  []int  // max nodes of each type available as destinations
	dims    []int  // counts[j]+1
	strides []int64
	prod    int64 // product of dims

	// planeOf maps a source type to its plane: the recurrence depends on
	// the source only through S(s) (both branches add exactly S(s); every
	// other term is a function of the reserved type l), so source types
	// with equal Send overhead have bit-identical planes and share one.
	// Types are sorted by (Send, Recv), so equal-Send runs are contiguous
	// and planeOf is non-decreasing. planeSrc[p] is a representative
	// source type of plane p (the first of its run).
	planeOf  []int32
	planeSrc []int

	value []int64 // index = planeOf[src]*prod + encoded count vector
	// pmin[idx] is the prefix minimum of value along the pivot axis:
	// min over 0 <= t <= v_pivot of T(s, v - t*e_pivot). Maintained in
	// O(1) per state during the fill (the predecessor sits one layer
	// down), it yields the exact minimum of each inner-loop column's
	// subtree and remainder terms in O(1), giving a sound column-skip
	// bound that needs no monotonicity assumption.
	pmin []int64
	// cascade nests the prefix minima over the remaining axes: with the
	// non-pivot axes listed in odo, cascade[d][idx] is the minimum of
	// value over the box [0..v_pivot] × [0..v_odo[0]] × … × [0..v_odo[d]]
	// below idx's count vector (its other coordinates fixed). Level d
	// extends level d-1 (level "-1" being pmin) along one more axis, so
	// each entry costs O(1) per state during the fill, like pmin. The
	// cascade gives evalState an exact minimum over whole blocks of
	// odometer columns in O(1), letting it skip subranges of dominated
	// splits — again with no monotonicity assumption. pmin and cascade
	// are fill-time state only and are freed when the fill ends; a loaded
	// table never allocates them.
	cascade [][]int64
	odo     []int // the non-pivot axes, ascending (odometer advance order)

	// order lists every count-vector state in non-decreasing total
	// destination count (counting-sorted; ascending state within a layer);
	// order[layerOff[t]:layerOff[t+1]] are the states with total t. The
	// layered fill walks order so every referenced sub-state is already
	// evaluated.
	order    []int32
	layerOff []int32
	// pivot is the axis binary-searched in the inner loop; the axis with
	// the largest dimension yields the biggest saving.
	pivot int
	// monotonePivot records whether every computed state so far satisfies
	// T(s, v) >= T(s, v - e_pivot) — the property the split pruning
	// relies on. T is NOT monotone for every valid network (a cheap extra
	// relay node can lower the optimum, e.g. with receive-overhead ties
	// across distinct send overheads), so each freshly computed value is
	// checked against its pivot predecessor; on the first violation the
	// flag drops (sticky) and later layers use the exhaustive column scan.
	// Pruning a layer-t state only consults values in layers < t, all of
	// which were checked before layer t started, so results stay exact for
	// every input. Only the fill's coordinator reads and writes it: workers
	// record violations locally and the coordinator merges them at each
	// layer barrier, so the flag is read once per layer.
	monotonePivot bool

	// evalCols counts the odometer columns evalState actually examined
	// (i.e. not skipped wholesale by a cascade block bound) during the
	// fill — the pruning-effectiveness denominator. evalState tallies into
	// its worker's fillScratch.cols; the fill adds the tallies here once,
	// when it ends.
	evalCols atomic.Int64
	// noCascade disables the nested block skip; tests use it to prove the
	// skip changes iteration counts but never values.
	noCascade bool
	// filled is set once every state holds its value: by the fill, or on
	// load. A second fill is a no-op and FinishTable refuses a DP without
	// it, so a Table is full by construction.
	filled bool
}

// fillScratch is the per-goroutine scratch a fill worker threads through
// fillOne/evalState: the decoded count vector, the split odometer, the
// per-reservation block-corner offsets of the cascade levels, and the
// tally of odometer columns examined since the fill last flushed it into
// evalCols.
//
// No shared lines: newScratch lays the workers' scratches out so that no
// byte one worker writes here lies within scratchGap of another worker's
// scratch. The odometer steps y on every column and evalState bumps cols
// on every state, so two workers writing neighbouring bytes would bounce
// one cache line (or one adjacent-line prefetch pair) between their cores
// on every step.
type fillScratch struct {
	vec    []int
	y      []int
	corner []int
	cols   int64
	_      [scratchGap]byte // keeps the next worker's scratch off these lines
}

// scratchGap is the minimum distance in bytes between two fill workers'
// written scratch: two 64-byte cache lines, which also covers the pair
// the adjacent-line prefetcher pulls in together.
const scratchGap = 128

// newScratch returns scratches for workers fill goroutines. Their vec, y
// and corner slices are carved from one arena, each worker's run
// separated from the next and from the arena's ends by scratchGap bytes;
// the padded fillScratch elements keep the cols tallies as far apart.
func (dp *DP) newScratch(workers int) []fillScratch {
	k, m := len(dp.types), len(dp.odo)
	const gap = scratchGap / (bits.UintSize / 8) // in ints
	stride := 2*k + m + gap
	arena := make([]int, gap+workers*stride)
	scr := make([]fillScratch, workers)
	for w := range scr {
		run := arena[gap+w*stride:]
		scr[w].vec = run[:k:k]
		scr[w].y = run[k : 2*k : 2*k]
		scr[w].corner = run[2*k : 2*k+m : 2*k+m]
	}
	return scr
}

const inf = int64(math.MaxInt64) / 4

var errUnfilled = errors.New("exact: the DP is not filled")

// New creates a DP for a network with the given latency, node types and
// per-type destination counts. Types must be distinct; they are sorted
// internally by (Send, Recv).
func New(latency int64, types []Type, counts []int) (*DP, error) {
	dp, err := newGeometry(latency, types, counts)
	if err != nil {
		return nil, err
	}
	k := len(dp.types)
	total := int64(len(dp.planeSrc)) * dp.prod
	dp.value = make([]int64, total)
	dp.pmin = make([]int64, total)
	dp.cascade = make([][]int64, k-1)
	for d := range dp.cascade {
		dp.cascade[d] = make([]int64, total)
	}
	dp.monotonePivot = true
	dp.buildLayers()
	return dp, nil
}

// newGeometry validates the network and builds only the state-space
// geometry (sorted types, dims, strides): enough for encoding, decoding
// and query checking, without the solver's tables. The reference solver
// builds on this so its memory profile matches the seed implementation.
func newGeometry(latency int64, types []Type, counts []int) (*DP, error) {
	if latency <= 0 {
		return nil, fmt.Errorf("exact: latency must be positive, got %d", latency)
	}
	if len(types) == 0 || len(types) != len(counts) {
		return nil, fmt.Errorf("exact: %d types with %d counts", len(types), len(counts))
	}
	idx := make([]int, len(types))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ta, tb := types[idx[a]], types[idx[b]]
		if ta.Send != tb.Send {
			return ta.Send < tb.Send
		}
		return ta.Recv < tb.Recv
	})
	dp := &DP{latency: latency}
	for _, i := range idx {
		t := types[i]
		if t.Send <= 0 || t.Recv <= 0 {
			return nil, fmt.Errorf("exact: type %+v has non-positive overheads", t)
		}
		// One hop's cost stays within model.MaxCost, as in any valid set,
		// so a value below inf plus one hop cannot overflow int64.
		if t.Send > model.MaxCost || t.Recv > model.MaxCost || latency > model.MaxCost-t.Send-t.Recv {
			return nil, fmt.Errorf("exact: type %+v with latency %d exceeds the cost bound %d", t, latency, int64(model.MaxCost))
		}
		if counts[i] < 0 {
			return nil, fmt.Errorf("exact: negative count %d", counts[i])
		}
		if len(dp.types) > 0 && dp.types[len(dp.types)-1] == t {
			return nil, fmt.Errorf("exact: duplicate type %+v", t)
		}
		dp.types = append(dp.types, t)
		dp.counts = append(dp.counts, counts[i])
	}
	k := len(dp.types)
	dp.dims = make([]int, k)
	dp.strides = make([]int64, k)
	dp.prod = 1
	for j := 0; j < k; j++ {
		dp.dims[j] = dp.counts[j] + 1
		dp.strides[j] = dp.prod
		dp.prod *= int64(dp.dims[j])
		if dp.prod > MaxStates {
			return nil, fmt.Errorf("exact: state space too large (> %d states)", MaxStates)
		}
		if dp.dims[j] > dp.dims[dp.pivot] {
			dp.pivot = j
		}
	}
	if total := int64(k) * dp.prod; total > MaxStates {
		return nil, fmt.Errorf("exact: state space too large: %d states (> %d)", total, MaxStates)
	}
	dp.odo = make([]int, 0, k-1)
	for j := 0; j < k; j++ {
		if j != dp.pivot {
			dp.odo = append(dp.odo, j)
		}
	}
	dp.planeOf = make([]int32, k)
	for j := range dp.types {
		if j > 0 && dp.types[j].Send == dp.types[j-1].Send {
			dp.planeOf[j] = dp.planeOf[j-1]
			continue
		}
		dp.planeOf[j] = int32(len(dp.planeSrc))
		dp.planeSrc = append(dp.planeSrc, j)
	}
	return dp, nil
}

// buildLayers lists every encoded count-vector state counting-sorted by
// total destination count into dp.order / dp.layerOff:
// order[layerOff[t]:layerOff[t+1]] are the states with total t, each
// layer in ascending encoded order (the odometer visits states
// ascending), so the fill order is deterministic. Two odometer passes
// track the total and the encoded state incrementally.
func (dp *DP) buildLayers() {
	k := len(dp.types)
	maxTotal := 0
	for _, c := range dp.counts {
		maxTotal += c
	}
	hist := make([]int32, maxTotal+1)
	vec := make([]int, k)
	total := 0
	for i := int64(0); i < dp.prod; i++ {
		hist[total]++
		for j := 0; j < k; j++ {
			if vec[j] < dp.counts[j] {
				vec[j]++
				total++
				break
			}
			total -= vec[j]
			vec[j] = 0
		}
	}
	layerOff := make([]int32, maxTotal+2)
	for t := 0; t <= maxTotal; t++ {
		layerOff[t+1] = layerOff[t] + hist[t]
	}
	order := make([]int32, dp.prod)
	next := append([]int32(nil), layerOff[:maxTotal+1]...)
	for j := range vec {
		vec[j] = 0
	}
	total = 0
	var state int64
	for i := int64(0); i < dp.prod; i++ {
		order[next[total]] = int32(state)
		next[total]++
		for j := 0; j < k; j++ {
			if vec[j] < dp.counts[j] {
				vec[j]++
				total++
				state += dp.strides[j]
				break
			}
			total -= vec[j]
			state -= int64(vec[j]) * dp.strides[j]
			vec[j] = 0
		}
	}
	dp.order, dp.layerOff = order, layerOff
}

// K returns the number of distinct types.
func (dp *DP) K() int { return len(dp.types) }

// Types returns the sorted type list.
func (dp *DP) Types() []Type { return append([]Type(nil), dp.types...) }

// Counts returns the per-type destination counts the DP was built for.
func (dp *DP) Counts() []int { return append([]int(nil), dp.counts...) }

// States returns the number of stored DP states. Source types with equal
// Send overhead share one plane (see planeOf), so this is
// Planes() * prod(counts[j]+1), not K() * prod(counts[j]+1).
func (dp *DP) States() int64 { return int64(len(dp.value)) }

// Planes returns the number of distinct source planes after dedup: the
// number of distinct Send overheads among the types. It is at most K(),
// and the table memory shrinks by exactly K()/Planes().
func (dp *DP) Planes() int { return len(dp.planeSrc) }

func (dp *DP) encodeVec(vec []int) int64 {
	var s int64
	for j, v := range vec {
		s += int64(v) * dp.strides[j]
	}
	return s
}

func (dp *DP) decodeVec(state int64, out []int) {
	for j := len(dp.dims) - 1; j >= 0; j-- {
		out[j] = int(state / dp.strides[j])
		state %= dp.strides[j]
	}
}

func (dp *DP) stateIndex(src int, vecState int64) int64 {
	return int64(dp.planeOf[src])*dp.prod + vecState
}

func (dp *DP) checkQuery(srcType int, counts []int) error {
	if srcType < 0 || srcType >= len(dp.types) {
		return fmt.Errorf("exact: source type %d out of range [0,%d)", srcType, len(dp.types))
	}
	if len(counts) != len(dp.types) {
		return fmt.Errorf("exact: %d counts for %d types", len(counts), len(dp.types))
	}
	for j, c := range counts {
		if c < 0 || c > dp.counts[j] {
			return fmt.Errorf("exact: count %d of type %d outside [0,%d]", c, j, dp.counts[j])
		}
	}
	return nil
}

// evalState evaluates the Lemma 4 recurrence for state (s, vecState). Every
// state with a strictly smaller destination total must already be in
// dp.value (the layered fill guarantees it). sc.vec must hold the decoded
// vecState on entry and is only read; sc.y/sc.corner are scratch.
//
// The outer odometer walks the splits column by column (a column fixes
// the non-pivot coordinates and varies the pivot). Three pruning layers
// keep the walk from touching dominated splits, the first two exact and
// unconditional, the third guarded:
//
//  1. Nested block skip. Whenever the first d odometer axes sit at zero,
//     the splits visited until axis d would advance form a box: the pivot
//     axis and those d axes ranging from zero to their caps, every other
//     coordinate fixed. cascade[d-1] holds the exact minimum of the
//     subtree term T(l, ·) over that box (indexed at the box's max
//     corner), and — because the remainder base's boxed coordinates equal
//     the caps — the exact minimum of the remainder term T(s, base-·)
//     too (indexed at the remainder of the box's min corner). If even
//     max(min a, min b) cannot beat the running best, no split in the
//     block can, and the odometer advances straight from axis d, skipping
//     the whole block. Checked widest-first; a failed wide bound still
//     leaves the narrower (hence tighter) levels worth trying. No
//     monotonicity assumption: these are exact box minima.
//  2. Column skip. Per surviving column, the same bound one level down
//     (pivot-only prefix minima, pmin) skips the column in two lookups.
//  3. Crossover search. With pruned set, the inner loop exploits
//     monotonicity of T along the pivot axis (established for all
//     already-filled layers, see monotonePivot): along the column the
//     subtree term a(t) = T(l, y) + S + L + R(l) is non-decreasing and
//     the remainder term b(t) = T(s, i - e_l - y) + S is non-increasing,
//     so max(a, b) is valley-shaped and its minimum sits at the a/b
//     crossover, found by binary search. Callers must pass pruned=false
//     once a pivot-axis monotonicity violation has been observed; the
//     column is then scanned exhaustively.
//
// Every skip discards only splits that provably cannot improve on the
// running best, so the value is bit-identical to the blind exhaustive
// scan's. Which split attains it is not tracked: the crossover search can
// settle on a different one among tied splits than the exhaustive scan
// would. Reconstruction re-derives the exhaustive scan's split from the
// values (see split), so every fill shape yields the same tree.
func (dp *DP) evalState(s int, vecState int64, sc *fillScratch, pruned bool) int64 {
	k := len(dp.types)
	S, L := dp.types[s].Send, dp.latency
	p := dp.pivot
	sp := dp.strides[p]
	sPlane := int64(dp.planeOf[s]) * dp.prod
	bVal := dp.value[sPlane:]
	bPmin := dp.pmin[sPlane:]
	vec, y, corner := sc.vec, sc.y, sc.corner
	m := len(dp.odo)
	best := inf
	var cols int64
	for l := 0; l < k; l++ {
		if vec[l] == 0 {
			continue
		}
		// Reserve the node of type l that receives first.
		baseState := vecState - dp.strides[l]
		addA := S + L + dp.types[l].Recv
		lPlane := int64(dp.planeOf[l]) * dp.prod
		aVal := dp.value[lPlane:]
		aPmin := dp.pmin[lPlane:]
		cp := vec[p]
		if p == l {
			cp--
		}
		// corner[d] is the encoded offset from a level-(d+1) block start
		// to the block's max corner: cp along the pivot plus this
		// reservation's caps along the first d+1 odometer axes.
		corn := int64(cp) * sp
		for d, ax := range dp.odo {
			capax := vec[ax]
			if ax == l {
				capax--
			}
			corn += int64(capax) * dp.strides[ax]
			corner[d] = int(corn)
		}
		// Odometer over the non-pivot axes; yOuter is the encoded partial
		// split. Splits y <= base componentwise encode without carries, so
		// the remainder state is simply baseState - yState.
		for j := range y {
			y[j] = 0
		}
		var yOuter int64
		// lvl counts the leading odometer axes currently at zero: the
		// current position starts a block at every level 1..lvl.
		lvl := m
		for {
			skipFrom := -1
			if !dp.noCascade {
				for d := lvl; d >= 1; d-- {
					casc := dp.cascade[d-1]
					aMin := casc[lPlane+yOuter+int64(corner[d-1])] + addA
					bMin := casc[sPlane+baseState-yOuter] + S
					lb := aMin
					if bMin > lb {
						lb = bMin
					}
					if lb >= best {
						skipFrom = d
						break
					}
				}
			}
			if skipFrom < 0 {
				cols++
				skipFrom = 0
				// Column {yOuter + t*sp : 0 <= t <= cp}. The exact minima
				// of the subtree term a(t) and the remainder term b(t)
				// over the column come from the pivot prefix minima in
				// O(1): both ranges start at pivot coordinate 0 and end at
				// cp, so each is a prefix. max of the two is a sound lower
				// bound on min max(a, b) with no monotonicity assumption;
				// a column that cannot beat the running best is skipped
				// outright.
				aMin := aPmin[yOuter+int64(cp)*sp] + addA
				bMin := bPmin[baseState-yOuter] + S
				lb := aMin
				if bMin > lb {
					lb = bMin
				}
				if lb < best {
					if pruned {
						// Binary search the smallest t with a(t) >= b(t);
						// the column minimum is min(b(t-1), a(t)).
						lo, hi := 0, cp
						for lo < hi {
							mid := int(uint(lo+hi) >> 1)
							ys := yOuter + int64(mid)*sp
							if aVal[ys]+addA >= bVal[baseState-ys]+S {
								hi = mid
							} else {
								lo = mid + 1
							}
						}
						yState := yOuter + int64(lo)*sp
						if v := max(aVal[yState]+addA, bVal[baseState-yState]+S); v < best {
							best = v
						}
						if lo > 0 {
							yState -= sp
							if v := max(aVal[yState]+addA, bVal[baseState-yState]+S); v < best {
								best = v
							}
						}
					} else {
						// Exhaustive column scan: sound without monotonicity.
						for t := 0; t <= cp; t++ {
							yState := yOuter + int64(t)*sp
							if v := max(aVal[yState]+addA, bVal[baseState-yState]+S); v < best {
								best = v
							}
						}
					}
				}
			}
			// Advance the outer odometer, starting at odometer axis
			// skipFrom (every lower axis is already zero there: either we
			// just processed a column, skipFrom = 0, or a level-skipFrom
			// block start, whose leading axes are zero by definition).
			j := skipFrom
			for ; j < m; j++ {
				ax := dp.odo[j]
				capax := vec[ax]
				if ax == l {
					capax--
				}
				if y[ax] < capax {
					y[ax]++
					yOuter += dp.strides[ax]
					break
				}
				yOuter -= int64(y[ax]) * dp.strides[ax]
				y[ax] = 0
			}
			if j == m {
				break
			}
			lvl = j
		}
	}
	sc.cols += cols
	return best
}

// EvalColumns returns the number of odometer columns evalState examined
// (not skipped wholesale by a cascade block bound) during the DP's fill.
// Benchmarks and the pruning-effectiveness tests compare it between
// cascade-enabled and cascade-disabled fills.
func (dp *DP) EvalColumns() int64 { return dp.evalCols.Load() }

// fillOne evaluates one state (s, vecState) of layer t, maintaining the
// value and nested prefix-minimum tables, and reports whether the new
// value violates pivot-axis monotonicity (the coordinator folds
// violations into monotonePivot at the layer barrier). sc.vec must hold
// the decoded vecState.
func (dp *DP) fillOne(s, t int, vecState int64, sc *fillScratch, pruned bool) bool {
	idx := dp.stateIndex(s, vecState)
	if t == 0 {
		dp.value[idx] = 0
		return dp.notePruneState(idx, sc.vec, 0)
	}
	v := dp.evalState(s, vecState, sc, pruned)
	dp.value[idx] = v
	return dp.notePruneState(idx, sc.vec, v)
}

// notePruneState folds a freshly written state (index idx, count vector
// vec, value v) into the pivot prefix minima and the nested cascade,
// reporting whether the value violates pivot-axis monotonicity. Each
// level extends the previous one along a single axis whose predecessor
// sits one layer down and is therefore final during a layered fill.
func (dp *DP) notePruneState(idx int64, vec []int, v int64) (violated bool) {
	pm := v
	if vec[dp.pivot] > 0 {
		sp := dp.strides[dp.pivot]
		if prev := dp.pmin[idx-sp]; prev < pm {
			pm = prev
		}
		if v < dp.value[idx-sp] {
			violated = true
		}
	}
	dp.pmin[idx] = pm
	for d, ax := range dp.odo {
		casc := dp.cascade[d]
		if vec[ax] > 0 {
			if prev := casc[idx-dp.strides[ax]]; prev < pm {
				pm = prev
			}
		}
		casc[idx] = pm
	}
	return violated
}

// FillAll evaluates every state (all source types, all count vectors up to
// the per-type limits), realizing the precomputed table of Theorem 2's
// closing remark. It is FillAllParallel(1): the same layered loop, run
// on the calling goroutine alone.
func (dp *DP) FillAll() { dp.FillAllParallel(1) }

// FillAllParallel is FillAll with each layer's work sharded across up to
// workers goroutines (0 selects GOMAXPROCS). Layers are barriers: layer t
// only starts once every state of layers < t is written, which is exactly
// the dependency structure of the recurrence, so the values are
// deterministic and identical for every worker count. A DP is filled
// once; calling either fill again does nothing.
func (dp *DP) FillAllParallel(workers int) {
	// More workers than cores never helps a CPU-bound fill, and the count
	// can arrive from the network (/v1/table's parallelism field), so
	// clamp before sizing any per-worker state.
	if workers <= 0 || workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	dp.fillLayers(workers)
}

// smallLayerFill is the state-evaluation count below which a layer is
// coalesced onto the coordinator instead of woken across the pool: the
// barrier handshake costs more than evaluating a handful of tiny states.
const smallLayerFill = 128

// layerTask is the shared descriptor of one layer's parallel fill;
// workers claim contiguous chunks of the layer's order span through the
// atomic cursor, so shard sizes adapt to however unevenly the per-state
// cost is distributed (work stealing, not uniform pre-sharding).
type layerTask struct {
	off    int
	n      int
	t      int
	chunk  int64
	pruned bool
	cursor atomic.Int64
}

// runLayer drains the layer task with one worker's scratch, reporting
// whether any computed state violated pivot-axis monotonicity.
func (dp *DP) runLayer(lt *layerTask, sc *fillScratch) (violated bool) {
	for {
		start := lt.cursor.Add(lt.chunk) - lt.chunk
		if start >= int64(lt.n) {
			return violated
		}
		end := start + lt.chunk
		if end > int64(lt.n) {
			end = int64(lt.n)
		}
		for i := int(start); i < int(end); i++ {
			vecState := int64(dp.order[lt.off+i])
			dp.decodeVec(vecState, sc.vec)
			for _, s := range dp.planeSrc {
				if dp.fillOne(s, lt.t, vecState, sc, lt.pruned) {
					violated = true
				}
			}
		}
	}
}

// fillLayers is the DP's one fill loop: it fills every layer of dp.order
// in turn, then frees the fill-only state and marks the DP filled; on a
// filled DP it does nothing. The workers-1 pool goroutines
// are spawned once for the whole fill, and one worker spawns none. Per
// layer the coordinator samples monotonePivot, then either fills the
// layer inline (one worker, or a layer too small to amortize the
// handshake) or publishes the task, wakes the pool with one token each,
// participates itself, and waits the barrier out. Workers observe
// monotonicity violations locally and the coordinator merges them at the
// barrier, so every worker count prunes the same columns and fills the
// same values.
//
// No shared lines between workers: each worker, the coordinator included,
// writes per state only into the DP tables and its own scratch from
// newScratch, which keeps every worker's written bytes at least
// scratchGap from every other worker's. Column tallies stay in the
// scratch too and reach evalCols once, after the last layer. It returns
// how many layers went through the pool (the rest ran inline).
func (dp *DP) fillLayers(workers int) (pooled int) {
	if dp.filled {
		return 0
	}
	scr := dp.newScratch(workers)
	lt := &layerTask{}
	violated := make([]bool, workers)
	work := make(chan struct{}, workers-1)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		go func(w int) {
			for range work {
				if dp.runLayer(lt, &scr[w]) {
					violated[w] = true
				}
				wg.Done()
			}
		}(w)
	}
	for t := 0; t+1 < len(dp.layerOff); t++ {
		off := int(dp.layerOff[t])
		n := int(dp.layerOff[t+1]) - off
		if n == 0 {
			continue
		}
		lt.off, lt.n, lt.t, lt.pruned = off, n, t, dp.monotonePivot
		if workers == 1 || n*len(dp.planeSrc) < smallLayerFill {
			lt.chunk = int64(n)
			lt.cursor.Store(0)
			if dp.runLayer(lt, &scr[0]) {
				violated[0] = true
			}
		} else {
			pooled++
			lt.chunk = batch.Chunk(n, workers)
			lt.cursor.Store(0)
			wg.Add(workers - 1)
			for w := 1; w < workers; w++ {
				work <- struct{}{}
			}
			if dp.runLayer(lt, &scr[0]) {
				violated[0] = true
			}
			wg.Wait()
		}
		for w := range violated {
			if violated[w] {
				dp.monotonePivot = false
				violated[w] = false
			}
		}
	}
	close(work)
	for w := range scr {
		dp.evalCols.Add(scr[w].cols)
	}
	// Every state is final, so nothing reads the prefix minima or the
	// layer order again; dropping them cuts a cached heap table's resident
	// cost to just the value planes, matching what a table loaded from
	// disk costs.
	dp.pmin, dp.cascade, dp.order, dp.layerOff = nil, nil, nil, nil
	dp.filled = true
	return pooled
}

// split re-derives the split evalState's exhaustive scan settles on for
// the filled state (s, vecState) with value v: the first split, in that
// scan's order — reserved type l ascending, then the odometer over
// dp.odo with odo[0] fastest, then the pivot coordinate ascending — whose
// max(a, b) equals v. The exhaustive scan keeps only strict improvements,
// so its split is exactly the first one to reach the minimum, whichever
// pruning the fill used. vec must hold the decoded vecState; y receives
// the split's count vector. ok is false when no split reaches v, which
// only a corrupt or hostile table can cause. Loaded values are below inf
// and overheads at most model.MaxCost, so no sum here overflows.
func (dp *DP) split(s int, vecState int64, vec []int, v int64, y []int) (l int, ok bool) {
	S, L := dp.types[s].Send, dp.latency
	p := dp.pivot
	sp := dp.strides[p]
	bVal := dp.value[int64(dp.planeOf[s])*dp.prod:]
	for l = range dp.types {
		if vec[l] == 0 {
			continue
		}
		baseState := vecState - dp.strides[l]
		addA := S + L + dp.types[l].Recv
		aVal := dp.value[int64(dp.planeOf[l])*dp.prod:]
		cp := vec[p]
		if p == l {
			cp--
		}
		for j := range y {
			y[j] = 0
		}
		var yOuter int64
		for {
			for t := 0; t <= cp; t++ {
				yState := yOuter + int64(t)*sp
				if max(aVal[yState]+addA, bVal[baseState-yState]+S) == v {
					y[p] = t
					return l, true
				}
			}
			j := 0
			for ; j < len(dp.odo); j++ {
				ax := dp.odo[j]
				capax := vec[ax]
				if ax == l {
					capax--
				}
				if y[ax] < capax {
					y[ax]++
					yOuter += dp.strides[ax]
					break
				}
				yOuter -= int64(y[ax]) * dp.strides[ax]
				y[ax] = 0
			}
			if j == len(dp.odo) {
				break
			}
		}
	}
	return 0, false
}

// ScheduleFor rebuilds an optimal schedule as a model.Schedule for a
// concrete multicast set whose source has type srcType and whose
// destinations realize counts. destsByType[j] lists the destination node
// IDs of type j; the assignment of same-type IDs to tree positions is
// arbitrary (they are interchangeable).
//
// The tree is the canonical one: at every node it takes the split the
// exhaustive scan settles on (see split), so any fill of the same
// network — any worker count, with or without the crossover search,
// built or loaded — yields the same tree, and it scores exactly the
// table value. A table whose values no split reproduces, or whose empty
// states are not 0, is reported as an error: the values may come from a
// hostile file. The walk keeps an explicit stack, so a deep tree cannot
// exhaust the goroutine stack. The DP must be filled.
func (dp *DP) ScheduleFor(set *model.MulticastSet, srcType int, counts []int, destsByType [][]model.NodeID) (*model.Schedule, error) {
	if !dp.filled {
		return nil, errUnfilled
	}
	if err := dp.checkQuery(srcType, counts); err != nil {
		return nil, err
	}
	for j := range counts {
		if len(destsByType[j]) != counts[j] {
			return nil, fmt.Errorf("exact: %d IDs supplied for type %d, counts say %d", len(destsByType[j]), j, counts[j])
		}
	}
	k := len(dp.types)
	sch := model.NewSchedule(set)
	next := make([]int, k) // next unused ID index per type
	// A pending node: its ID and type, and the counts its subtree covers.
	type pending struct {
		id  model.NodeID
		typ int
		vec []int
	}
	stack := []pending{{id: 0, typ: srcType, vec: append([]int(nil), counts...)}}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur := nd.vec
		// Hand out the node's children in delivery order: each split
		// reserves the next child and the counts of its subtree, and the
		// node goes on with the rest.
		for {
			curState := dp.encodeVec(cur)
			v := dp.value[dp.stateIndex(nd.typ, curState)]
			if curState == 0 {
				if v != 0 {
					return nil, fmt.Errorf("exact: table value %d for an empty multicast from type %d, want 0", v, nd.typ)
				}
				break
			}
			y := make([]int, k)
			l, ok := dp.split(nd.typ, curState, cur, v, y)
			if !ok {
				return nil, fmt.Errorf("exact: table value %d at type %d, counts %v is reached by no split", v, nd.typ, cur)
			}
			id := destsByType[l][next[l]]
			next[l]++
			if err := sch.AddChild(nd.id, id); err != nil {
				return nil, err
			}
			stack = append(stack, pending{id: id, typ: l, vec: y})
			for j := range cur {
				cur[j] -= y[j]
			}
			cur[l]--
		}
	}
	return sch, nil
}
