package model

import (
	"math/rand"
	"testing"
)

// FuzzEngineMoves drives random schedules through fuzzer-chosen move
// sequences, cross-checking the engine against a from-scratch
// ComputeTimes at every step: Engine.Eval/EvalMoves must predict the
// post-move completion times exactly, and after the move is applied
// (CommitSwap or re-Attach) the engine's per-node times must match.
//
// The byte stream encodes one move per 3-byte group: a kind byte (even =
// swap, odd = relocate) and two operand bytes reduced modulo the node
// count. Invalid operands (same node, non-leaf relocation, relocation to
// the current parent) are skipped, so every corpus input is a valid
// drive sequence.
func FuzzEngineMoves(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2})
	f.Add(uint64(7), []byte{1, 3, 0, 0, 2, 5})
	f.Add(uint64(42), []byte{0, 1, 2, 1, 4, 0, 0, 3, 3, 1, 2, 2})
	f.Add(uint64(31337), []byte{2, 9, 9, 1, 1, 1, 0, 0, 0, 3, 7, 5, 4, 2, 6})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 2 + int(seed%22)
		var set *MulticastSet
		if seed%3 == 0 {
			set = recvTiedSet(rng, n)
		} else {
			set = randIncrSet(rng, n)
		}
		sch := randIncrSchedule(rng, set)
		var tm Times
		var eng Engine
		eng.Attach(sch)
		out := make([]int64, 1)
		for i := 0; i+2 < len(ops); i += 3 {
			kind, x, y := ops[i], 1+int(ops[i+1])%n, 1+int(ops[i+2])%n
			if x == y {
				continue
			}
			var mv Move
			if kind%2 == 0 {
				mv = SwapMove(x, y)
			} else {
				if !sch.IsLeaf(x) {
					continue
				}
				target := NodeID(int(ops[i+2]) % (n + 1)) // targets include the root
				if target == x || target == sch.Parent(x) {
					continue
				}
				mv = RelocateMove(x, target)
			}
			// Non-mutating batch evaluation first.
			eng.EvalMoves([]Move{mv}, out)
			evalDT, evalRT := eng.Eval(mv)
			if evalRT != out[0] {
				t.Fatalf("Eval %d vs EvalMoves %d for %v", evalRT, out[0], mv)
			}
			// Apply the move the way the heuristics do, alternating
			// between the in-place swap commit and a full re-attach.
			if mv.Kind == MoveSwap {
				if err := sch.SwapNodes(mv.A, mv.B); err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 {
					eng.CommitSwap(mv.A, mv.B)
				} else {
					eng.Attach(sch)
				}
			} else {
				if _, _, err := sch.RemoveLeaf(mv.A); err != nil {
					t.Fatal(err)
				}
				if err := sch.InsertChild(mv.B, mv.A, len(sch.Children(mv.B))); err != nil {
					t.Fatal(err)
				}
				eng.Attach(sch)
			}
			fresh := ComputeTimes(sch)
			if evalRT != fresh.RT || evalDT != fresh.DT {
				t.Fatalf("move %v: eval DT/RT %d/%d, fresh %d/%d\ntree %s",
					mv, evalDT, evalRT, fresh.DT, fresh.RT, sch)
			}
			if eng.RT() != fresh.RT || eng.DT() != fresh.DT {
				t.Fatalf("move %v: re-attached engine DT/RT %d/%d, fresh %d/%d",
					mv, eng.DT(), eng.RT(), fresh.DT, fresh.RT)
			}
			eng.TimesInto(&tm)
			for v := range fresh.Delivery {
				if tm.Delivery[v] != fresh.Delivery[v] || tm.Reception[v] != fresh.Reception[v] {
					t.Fatalf("move %v: node %d engine d/r %d/%d, fresh %d/%d",
						mv, v, tm.Delivery[v], tm.Reception[v], fresh.Delivery[v], fresh.Reception[v])
				}
			}
		}
	})
}
