package model

import "fmt"

// BatchEngine scores B independent cost assignments ("lanes") of one
// schedule shape in a single pass over shared flat buffers. It is the
// schedule-major counterpart of Engine: where Engine amortizes layer
// aggregates across a neighborhood of *moves* on one schedule, the
// BatchEngine amortizes the tree walk itself across many *schedules* that
// share a tree shape but differ in per-node overheads and latencies — the
// exact structure of Monte Carlo perturbation trials and robustness
// sweeps, where one plan is rescored under many drawn cost vectors.
//
// The layout is position-major, lane-minor: lane data for position p
// occupies the contiguous row [p*lanes, (p+1)*lanes) of each flat int64
// slice. Evaluation iterates positions in BFS order (parents precede
// children) and, per child position, advances every lane with one
// branch-free kernel step over contiguous rows, folding the per-lane
// delivery/reception completion maxima as it goes — so throughput is
// bounded by memory bandwidth over the lane rows rather than by per-call
// tree-walk overhead.
//
// Usage: Attach builds (or rebuilds, reusing every buffer) the shape
// mirror and fills every lane with the nominal costs of the attached
// set; SetLane overrides one lane's costs; EvalAll scores all lanes;
// RTs and LaneTimesInto read the results. The zero value is ready for
// use. A BatchEngine is not safe for concurrent use.
type BatchEngine struct {
	treeShape // flat structure, indexed by position (BFS layer order)

	set   *MulticastSet
	lanes int

	// Lane rows, indexed [pos*lanes + b]. lat is the latency of the
	// transmission delivering the position (drawn from the sender, so a
	// perturbed parent delays all of its children's edges); the root rows
	// of recv and lat are unused.
	send, recv, lat []int64
	d, r            []int64

	acc      []int64 // per-lane send accumulator of the current parent
	dts, rts []int64 // per-lane completion times, valid after EvalAll
}

// Attach (re)builds the engine's flat mirror of sch's shape with the
// given lane count, reusing all internal buffers, and resets every lane
// to the attached set's nominal overheads and latency. Unattached
// destinations get position -1 and contribute zero times, matching the
// ComputeTimes convention.
func (e *BatchEngine) Attach(sch *Schedule, lanes int) {
	if lanes <= 0 {
		panic(fmt.Sprintf("model: BatchEngine.Attach: lanes must be positive, got %d", lanes))
	}
	if cm := sch.Model(); !IsBase(cm) {
		panic(fmt.Sprintf("model: BatchEngine.Attach: schedule bound to cost model %q; the batch engine scores the base model only", cm.Name()))
	}
	e.set = sch.Set
	e.treeShape.build(sch)
	e.lanes = lanes
	rows := e.m * lanes
	e.send = resizeInt64(e.send, rows)
	e.recv = resizeInt64(e.recv, rows)
	e.lat = resizeInt64(e.lat, rows)
	e.d = resizeInt64(e.d, rows)
	e.r = resizeInt64(e.r, rows)
	e.acc = resizeInt64(e.acc, lanes)
	e.dts = resizeInt64(e.dts, lanes)
	e.rts = resizeInt64(e.rts, lanes)

	L := e.set.Latency
	for i := 0; i < e.m; i++ {
		nd := &e.set.Nodes[e.order[i]]
		off := i * lanes
		kernFill(e.send[off:off+lanes], nd.Send)
		kernFill(e.recv[off:off+lanes], nd.Recv)
		kernFill(e.lat[off:off+lanes], L)
	}
}

// SetLane overrides lane b's costs with per-node vectors indexed by
// NodeID: sendC[v] and recvC[v] are v's overheads and latC[v] the latency
// of every transmission v originates (the sender pays latency, mirroring
// sim.Perturb's convention). Each vector must have one entry per node of
// the attached set; a nil vector keeps the nominal values from Attach.
//
//hnow:noalloc
func (e *BatchEngine) SetLane(b int, sendC, recvC, latC []int64) {
	if b < 0 || b >= e.lanes {
		panic(fmt.Sprintf("model: BatchEngine.SetLane: lane %d out of range [0,%d)", b, e.lanes))
	}
	n := len(e.set.Nodes)
	if (sendC != nil && len(sendC) != n) || (recvC != nil && len(recvC) != n) || (latC != nil && len(latC) != n) {
		panic(fmt.Sprintf("model: BatchEngine.SetLane: cost vectors must have %d entries", n))
	}
	B := e.lanes
	if sendC != nil {
		for i := 0; i < e.m; i++ {
			e.send[i*B+b] = sendC[e.order[i]]
		}
	}
	if recvC != nil {
		for i := 0; i < e.m; i++ {
			e.recv[i*B+b] = recvC[e.order[i]]
		}
	}
	if latC != nil {
		for i := 1; i < e.m; i++ {
			e.lat[i*B+b] = latC[e.order[e.parentPos[i]]]
		}
	}
}

// SetLanes overrides every lane's costs in one position-major pass:
// sendCs[b], recvCs[b] and latCs[b] are lane b's per-NodeID vectors with
// SetLane's semantics (the sender pays latency; a nil vector keeps that
// lane's current values). Each outer slice must have one entry per
// attached lane. Per-lane SetLane calls write each row at a lanes-sized stride
// — one cache line per element; filling position-major instead makes the
// row writes sequential while the (small) draw vectors stay cache
// resident, which is what keeps the fill half of the batch path at
// memory bandwidth.
//
//hnow:noalloc
func (e *BatchEngine) SetLanes(sendCs, recvCs, latCs [][]int64) {
	B := e.lanes
	if len(sendCs) != B || len(recvCs) != B || len(latCs) != B {
		panic(fmt.Sprintf("model: BatchEngine.SetLanes: want %d cost vectors per kind, got %d/%d/%d",
			B, len(sendCs), len(recvCs), len(latCs)))
	}
	n := len(e.set.Nodes)
	for b := 0; b < B; b++ {
		if (sendCs[b] != nil && len(sendCs[b]) != n) || (recvCs[b] != nil && len(recvCs[b]) != n) || (latCs[b] != nil && len(latCs[b]) != n) {
			panic(fmt.Sprintf("model: BatchEngine.SetLanes: cost vectors must have %d entries", n))
		}
	}
	for i := 0; i < e.m; i++ {
		v := e.order[i]
		off := i * B
		srow := e.send[off : off+B]
		rrow := e.recv[off : off+B]
		for b := 0; b < B; b++ {
			if sc := sendCs[b]; sc != nil {
				srow[b] = sc[v]
			}
			if rc := recvCs[b]; rc != nil {
				rrow[b] = rc[v]
			}
		}
	}
	for i := 1; i < e.m; i++ {
		p := e.order[e.parentPos[i]]
		off := i * B
		lrow := e.lat[off : off+B]
		for b := 0; b < B; b++ {
			if lc := latCs[b]; lc != nil {
				lrow[b] = lc[p]
			}
		}
	}
}

// EvalAll computes delivery and reception times for every lane in one
// layer-major pass: positions in BFS order, each child position advanced
// across all lanes by one contiguous kernel step with the completion
// maxima fused in. Steady-state the call allocates nothing.
//
//hnow:noalloc
func (e *BatchEngine) EvalAll() {
	B := e.lanes
	kernFill(e.d[:B], 0)
	kernFill(e.r[:B], 0)
	kernFill(e.dts, 0)
	kernFill(e.rts, 0)
	for i := 0; i < e.m; i++ {
		kl, kh := int(e.kidLo[i]), int(e.kidHi[i])
		if kl == kh {
			continue
		}
		off := i * B
		copy(e.acc, e.r[off:off+B])
		srow := e.send[off : off+B]
		for j := kl; j < kh; j++ {
			co := j * B
			kernLaneStep(e.acc, srow, e.lat[co:co+B], e.recv[co:co+B], e.d[co:co+B], e.r[co:co+B], e.dts, e.rts)
		}
	}
}

// RTs returns the per-lane reception completion times as a shared slice
// (valid after EvalAll, invalidated by the next Attach or EvalAll).
func (e *BatchEngine) RTs() []int64 { return e.rts[:e.lanes] }

// LaneTimesInto writes lane b's times into tm in node index order,
// exactly as ComputeTimesInto would produce them for a schedule with that
// lane's costs (unattached nodes get zero times). It reuses tm's buffers
// and allocates nothing after warmup.
func (e *BatchEngine) LaneTimesInto(b int, tm *Times) {
	if b < 0 || b >= e.lanes {
		panic(fmt.Sprintf("model: BatchEngine.LaneTimesInto: lane %d out of range [0,%d)", b, e.lanes))
	}
	n := len(e.set.Nodes)
	tm.Delivery = resizeInt64(tm.Delivery, n)
	tm.Reception = resizeInt64(tm.Reception, n)
	if e.m < n {
		kernFill(tm.Delivery, 0)
		kernFill(tm.Reception, 0)
	}
	B := e.lanes
	for j := 0; j < e.m; j++ {
		v := e.order[j]
		tm.Delivery[v] = e.d[j*B+b]
		tm.Reception[v] = e.r[j*B+b]
	}
	tm.DT, tm.RT = e.dts[b], e.rts[b]
}

// MemBytes reports the engine's retained buffer footprint: the basis for
// bounded pooling (batch.EnginePool), mirroring how the table LRU budgets
// by bytes rather than entries.
func (e *BatchEngine) MemBytes() int64 {
	wide := cap(e.send) + cap(e.recv) + cap(e.lat) + cap(e.d) + cap(e.r) +
		cap(e.acc) + cap(e.dts) + cap(e.rts) + cap(e.rank) + cap(e.order)
	narrow := cap(e.pos) + cap(e.parentPos) + cap(e.kidLo) + cap(e.kidHi) +
		cap(e.layerOf) + cap(e.layerOff)
	return int64(wide)*8 + int64(narrow)*4
}
