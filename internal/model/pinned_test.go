package model

import (
	"math/rand"
	"testing"
)

// pinnedModels are the cost models Pinned is checked under: every
// recurrence the engine runs (M = 1 with a uniform or per-pair latency,
// instantaneous receptions, the M-wide rows, and the reverse fold with and
// without a forward pass). rev marks the reverse fold, under which Pinned
// must never hold.
var pinnedModels = []struct {
	name string
	rev  bool
	at   func(rng *rand.Rand, n int) CostModel
}{
	{"base", false, func(*rand.Rand, int) CostModel { return nil }},
	{"link", false, func(rng *rand.Rand, n int) CostModel { return randLinkModel(rng, n) }},
	{"node", false, func(rng *rand.Rand, _ int) CostModel { return NodeModel{Lambda: int64(rng.Intn(5))} }},
	{"pipeline", false, func(rng *rand.Rand, _ int) CostModel { return &PipelineModel{Segments: 2 + rng.Intn(5)} }},
	{"reduce", true, func(*rand.Rand, int) CostModel { return ReduceModel{} }},
	{"barrier", true, func(*rand.Rand, int) CostModel { return &BarrierModel{} }},
}

// TestPinnedSound checks the one promise of Engine.Pinned: a pinned move
// never scores an RT below the attached RT. It runs every swap and
// relocation of random schedules — some leaving destinations unattached —
// on correlated and recv-tied sets, under every model, before and after
// an in-place CommitSwap (which must invalidate the index). Pinned must
// never hold under the reverse fold, must hold for no move naming an
// unattached node, and must prune some moves under the forward models.
func TestPinnedSound(t *testing.T) {
	for _, pm := range pinnedModels {
		t.Run(pm.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20261021))
			var eng Engine
			pinned, total := 0, 0
			check := func(trial int, sch *Schedule, moves []Move) {
				t.Helper()
				rt0 := eng.RT()
				for _, mv := range moves {
					total++
					if !eng.Pinned(mv) {
						continue
					}
					pinned++
					if pm.rev {
						t.Fatalf("trial %d: %s %v pinned under the reverse fold", trial, kindName(mv.Kind), mv)
					}
					if _, rt := eng.Eval(mv); rt < rt0 {
						t.Fatalf("trial %d: %s %v is pinned but lowers RT %d to %d\ntree %s",
							trial, kindName(mv.Kind), mv, rt0, rt, sch)
					}
				}
			}
			for trial := 0; trial < 300; trial++ {
				var set *MulticastSet
				if trial%2 == 0 {
					set = recvTiedSet(rng, 2+rng.Intn(20))
				} else {
					set = randIncrSet(rng, 2+rng.Intn(20))
				}
				n := len(set.Nodes)
				keep := n
				if trial%4 == 3 {
					keep = 2 + rng.Intn(n-1)
				}
				sch, attached := randPartialSchedule(rng, set, keep)
				sch.BindModel(pm.at(rng, n))
				eng.Attach(sch)
				moves := attachedMoves(sch, attached)
				check(trial, sch, moves)
				for v := keep; v < n; v++ {
					if eng.Pinned(SwapMove(1, v)) || eng.Pinned(RelocateMove(v, 0)) {
						t.Fatalf("trial %d: a move naming unattached node %d is pinned", trial, v)
					}
				}
				if len(attached) < 3 {
					continue
				}
				a := attached[1+rng.Intn(len(attached)-1)]
				b := attached[1+rng.Intn(len(attached)-1)]
				if err := sch.SwapNodes(a, b); err != nil {
					t.Fatal(err)
				}
				eng.CommitSwap(a, b)
				check(trial, sch, attachedMoves(sch, attached))
			}
			if pm.rev {
				return
			}
			if pinned == 0 {
				t.Fatalf("no move of %d pruned", total)
			}
			t.Logf("%d of %d moves pinned", pinned, total)
		})
	}
}
