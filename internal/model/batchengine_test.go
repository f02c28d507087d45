package model

import (
	"math/rand"
	"testing"
)

// RT returns lane b's reception completion time (valid after EvalAll).
func (e *BatchEngine) RT(b int) int64 { return e.rts[b] }

// DT returns lane b's delivery completion time (valid after EvalAll).
func (e *BatchEngine) DT(b int) int64 { return e.dts[b] }

// DTs returns the per-lane delivery completion times as a shared slice
// (valid after EvalAll, invalidated by the next Attach or EvalAll).
func (e *BatchEngine) DTs() []int64 { return e.dts[:e.lanes] }

// refLaneTimes is the scalar oracle for a single lane: the model
// recurrences walked recursively on the schedule with per-node cost
// vectors, including a per-sender latency (which BatchEngine supports but
// ComputeTimes, with its single global latency, does not).
func refLaneTimes(sch *Schedule, sendC, recvC, latC []int64) Times {
	n := len(sch.Set.Nodes)
	tm := Times{Delivery: make([]int64, n), Reception: make([]int64, n)}
	stack := []NodeID{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rv := tm.Reception[v]
		for i, w := range sch.Children(v) {
			d := rv + int64(i+1)*sendC[v] + latC[v]
			tm.Delivery[w] = d
			tm.Reception[w] = d + recvC[w]
			if d > tm.DT {
				tm.DT = d
			}
			if tm.Reception[w] > tm.RT {
				tm.RT = tm.Reception[w]
			}
			stack = append(stack, w)
		}
	}
	return tm
}

// nominalCosts extracts a set's costs as the per-node vectors SetLane
// takes.
func nominalCosts(set *MulticastSet) (sendC, recvC, latC []int64) {
	n := len(set.Nodes)
	sendC, recvC, latC = make([]int64, n), make([]int64, n), make([]int64, n)
	for v := range set.Nodes {
		sendC[v] = set.Nodes[v].Send
		recvC[v] = set.Nodes[v].Recv
		latC[v] = set.Latency
	}
	return
}

// requireLaneMatches cross-checks one lane of the batch against expected
// times, bit for bit, including the per-node vectors via LaneTimesInto.
func requireLaneMatches(t *testing.T, be *BatchEngine, b int, want Times, label string) {
	t.Helper()
	if be.RT(b) != want.RT || be.DT(b) != want.DT {
		t.Fatalf("%s: lane %d RT/DT = %d/%d, want %d/%d", label, b, be.RT(b), be.DT(b), want.RT, want.DT)
	}
	if be.RTs()[b] != want.RT || be.DTs()[b] != want.DT {
		t.Fatalf("%s: lane %d RTs/DTs slice disagrees with RT/DT", label, b)
	}
	var tm Times
	be.LaneTimesInto(b, &tm)
	if tm.RT != want.RT || tm.DT != want.DT {
		t.Fatalf("%s: lane %d LaneTimesInto RT/DT = %d/%d, want %d/%d", label, b, tm.RT, tm.DT, want.RT, want.DT)
	}
	for v := range want.Delivery {
		if tm.Delivery[v] != want.Delivery[v] || tm.Reception[v] != want.Reception[v] {
			t.Fatalf("%s: lane %d node %d d/r = %d/%d, want %d/%d",
				label, b, v, tm.Delivery[v], tm.Reception[v], want.Delivery[v], want.Reception[v])
		}
	}
}

// TestBatchEngineNominalMatchesComputeTimes pins every lane of a freshly
// attached batch (all lanes nominal) to ComputeTimes, on random
// correlated and recv-tied sets.
func TestBatchEngineNominalMatchesComputeTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	var be BatchEngine
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		var set *MulticastSet
		if trial%3 == 0 {
			set = recvTiedSet(rng, n)
		} else {
			set = randIncrSet(rng, n)
		}
		sch := randIncrSchedule(rng, set)
		lanes := 1 + rng.Intn(9)
		be.Attach(sch, lanes)
		be.EvalAll()
		want := ComputeTimes(sch)
		for b := 0; b < lanes; b++ {
			requireLaneMatches(t, &be, b, want, "nominal")
		}
	}
}

// TestBatchEnginePerturbedLanesMatchEngine gives every lane distinct
// drawn cost vectors and cross-checks each against both the scalar
// reference walk and a per-schedule Engine attached to an equivalently
// re-costed set — the bit-identity the batched sweep path relies on.
func TestBatchEnginePerturbedLanesMatchEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	var be BatchEngine
	var eng Engine
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(30)
		var set *MulticastSet
		if trial%3 == 0 {
			set = recvTiedSet(rng, n)
		} else {
			set = randIncrSet(rng, n)
		}
		sch := randIncrSchedule(rng, set)
		lanes := 1 + rng.Intn(7)
		be.Attach(sch, lanes)

		type laneCosts struct{ sendC, recvC, latC []int64 }
		costs := make([]laneCosts, lanes)
		commonLat := int64(1 + rng.Intn(4))
		for b := range costs {
			sendC, recvC, latC := nominalCosts(set)
			if b == 0 {
				// Lane 0 stays nominal: mixed-lane batches must not bleed.
				costs[b] = laneCosts{sendC, recvC, latC}
				continue
			}
			for v := range sendC {
				sendC[v] += int64(rng.Intn(3))
				recvC[v] += int64(rng.Intn(3))
				if b%2 == 0 {
					latC[v] = commonLat // Engine-comparable: uniform latency
				} else {
					latC[v] += int64(rng.Intn(3)) // per-sender latency, scalar oracle only
				}
			}
			costs[b] = laneCosts{sendC, recvC, latC}
			be.SetLane(b, sendC, recvC, latC)
		}
		be.EvalAll()

		for b := 0; b < lanes; b++ {
			c := costs[b]
			want := refLaneTimes(sch, c.sendC, c.recvC, c.latC)
			requireLaneMatches(t, &be, b, want, "perturbed")

			uniform := true
			for v := range c.latC {
				if c.latC[v] != c.latC[0] {
					uniform = false
					break
				}
			}
			if !uniform {
				continue
			}
			// Rebuild the lane as a plain re-costed set; the single-schedule
			// Engine must agree bit for bit.
			nodes := make([]Node, n+1)
			for v := range nodes {
				nodes[v] = Node{Send: c.sendC[v], Recv: c.recvC[v]}
			}
			laneSet := &MulticastSet{Latency: c.latC[0], Nodes: nodes}
			laneSch := NewSchedule(laneSet)
			cloneInto(sch, laneSch)
			eng.Attach(laneSch)
			if eng.RT() != be.RT(b) || eng.DT() != be.DT(b) {
				t.Fatalf("lane %d: Engine RT/DT = %d/%d, batch %d/%d", b, eng.RT(), eng.DT(), be.RT(b), be.DT(b))
			}
		}
	}
}

// TestBatchEngineSetLanesMatchesSetLane pins the position-major bulk fill
// to the per-lane path, lane for lane and bit for bit, including nil
// entries (keep-nominal) and mixed nil/non-nil kinds, and checks the bulk
// fill allocates nothing.
func TestBatchEngineSetLanesMatchesSetLane(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	var perLane, bulk BatchEngine
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(30)
		var set *MulticastSet
		if trial%3 == 0 {
			set = recvTiedSet(rng, n)
		} else {
			set = randIncrSet(rng, n)
		}
		sch := randIncrSchedule(rng, set)
		lanes := 1 + rng.Intn(9)
		perLane.Attach(sch, lanes)
		bulk.Attach(sch, lanes)

		sendCs := make([][]int64, lanes)
		recvCs := make([][]int64, lanes)
		latCs := make([][]int64, lanes)
		for b := 0; b < lanes; b++ {
			sendC, recvC, latC := nominalCosts(set)
			for v := range sendC {
				sendC[v] += int64(rng.Intn(3))
				recvC[v] += int64(rng.Intn(3))
				latC[v] += int64(rng.Intn(3))
			}
			// Drop whole kinds at random: nil must keep the nominal fill.
			if rng.Intn(4) == 0 {
				sendC = nil
			}
			if rng.Intn(4) == 0 {
				recvC = nil
			}
			if rng.Intn(4) == 0 {
				latC = nil
			}
			sendCs[b], recvCs[b], latCs[b] = sendC, recvC, latC
			perLane.SetLane(b, sendC, recvC, latC)
		}
		if avg := testing.AllocsPerRun(5, func() { bulk.SetLanes(sendCs, recvCs, latCs) }); avg != 0 {
			t.Fatalf("SetLanes allocates %.1f times per call", avg)
		}
		perLane.EvalAll()
		bulk.EvalAll()
		for b := 0; b < lanes; b++ {
			var want Times
			perLane.LaneTimesInto(b, &want)
			requireLaneMatches(t, &bulk, b, want, "setlanes")
		}
	}
}

// cloneInto replays src's tree onto dst (same shape, possibly different
// set costs).
func cloneInto(src, dst *Schedule) {
	stack := []NodeID{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range src.Children(v) {
			dst.MustAddChild(v, w)
			stack = append(stack, w)
		}
	}
}

// TestBatchEngineReattachReuse drives one BatchEngine across instances of
// varying size and lane count, checking nothing leaks between
// attachments.
func TestBatchEngineReattachReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	var be BatchEngine
	for trial := 0; trial < 25; trial++ {
		set := randIncrSet(rng, 1+rng.Intn(50))
		sch := randIncrSchedule(rng, set)
		lanes := 1 + rng.Intn(16)
		be.Attach(sch, lanes)
		be.EvalAll()
		want := ComputeTimes(sch)
		for b := 0; b < lanes; b++ {
			requireLaneMatches(t, &be, b, want, "reattach")
		}
	}
}

// TestBatchEngineSteadyStateAllocFree checks the resident loop — SetLane,
// EvalAll, reads — allocates nothing once attached.
func TestBatchEngineSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	set := randIncrSet(rng, 48)
	sch := randIncrSchedule(rng, set)
	var be BatchEngine
	const lanes = 16
	be.Attach(sch, lanes)
	sendC, recvC, latC := nominalCosts(set)
	var tm Times
	be.LaneTimesInto(0, &tm) // warm tm's buffers
	avg := testing.AllocsPerRun(50, func() {
		for b := 0; b < lanes; b++ {
			sendC[b%len(sendC)]++
			be.SetLane(b, sendC, recvC, latC)
		}
		be.EvalAll()
		be.LaneTimesInto(lanes-1, &tm)
		_ = be.RTs()[0] + be.DTs()[0]
	})
	if avg != 0 {
		t.Fatalf("steady-state batch loop allocates %.1f times per iteration", avg)
	}
}

// FuzzBatchEval drives fuzzer-chosen shapes and lane perturbations
// through the batch evaluator, pinning every lane to a from-scratch
// ComputeTimes on an equivalently re-costed set — the batch counterpart
// of FuzzEngineMoves. The byte stream perturbs costs one byte per
// (lane, node) pair: low bits add to send/recv, high bit bumps the lane's
// uniform latency.
func FuzzBatchEval(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint64(7), []byte{255, 0, 128, 9, 4})
	f.Add(uint64(42), []byte{13, 37, 13, 37, 13, 37, 13, 37})
	f.Fuzz(func(t *testing.T, seed uint64, perturb []byte) {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 1 + int(seed%24)
		var set *MulticastSet
		if seed%3 == 0 {
			set = recvTiedSet(rng, n)
		} else {
			set = randIncrSet(rng, n)
		}
		sch := randIncrSchedule(rng, set)
		lanes := 1 + int(seed>>8)%6
		var be BatchEngine
		be.Attach(sch, lanes)

		allCosts := make([][3][]int64, lanes)
		for b := 0; b < lanes; b++ {
			sendC, recvC, latC := nominalCosts(set)
			for v := 0; v <= n; v++ {
				idx := b*(n+1) + v
				if idx >= len(perturb) {
					break
				}
				p := perturb[idx]
				sendC[v] += int64(p & 3)
				recvC[v] += int64((p >> 2) & 3)
				if p&128 != 0 {
					for u := range latC {
						latC[u]++
					}
				}
			}
			allCosts[b] = [3][]int64{sendC, recvC, latC}
			be.SetLane(b, sendC, recvC, latC)
		}
		be.EvalAll()

		for b := 0; b < lanes; b++ {
			c := allCosts[b]
			nodes := make([]Node, n+1)
			for v := range nodes {
				nodes[v] = Node{Send: c[0][v], Recv: c[1][v]}
			}
			laneSet := &MulticastSet{Latency: c[2][0], Nodes: nodes}
			laneSch := NewSchedule(laneSet)
			cloneInto(sch, laneSch)
			want := ComputeTimes(laneSch)
			if be.RT(b) != want.RT || be.DT(b) != want.DT {
				t.Fatalf("lane %d: batch RT/DT = %d/%d, ComputeTimes %d/%d\ntree %s",
					b, be.RT(b), be.DT(b), want.RT, want.DT, sch)
			}
			var tm Times
			be.LaneTimesInto(b, &tm)
			for v := range want.Delivery {
				if tm.Delivery[v] != want.Delivery[v] || tm.Reception[v] != want.Reception[v] {
					t.Fatalf("lane %d node %d: batch d/r = %d/%d, want %d/%d",
						b, v, tm.Delivery[v], tm.Reception[v], want.Delivery[v], want.Reception[v])
				}
			}
		}
	})
}
