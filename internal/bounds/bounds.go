// Package bounds implements the approximation bound of Section 3 of the
// paper (Theorem 1).
//
// Theorem 1: for a multicast set with receive-send ratios bounded in
// [amin, amax] and receiving-overhead spread beta, the greedy algorithm's
// reception completion time is strictly below
//
//	2 * ceil(amax)/amin * OPT_R + beta.
//
// Params carries the constants of an instance and Params.Bound evaluates
// the guarantee; hnowd, hnowsched, the experiments and the examples use it
// to compare greedy against the theory. The proof's devices live in this
// package's tests, which build and check them directly: the rounded
// instance S' (sending overheads rounded up to powers of two, receiving
// overheads set to ceil(amax) times them) and Lemma 3's exchange
// transformation, which layers any schedule on S' without increasing its
// delivery completion time.
package bounds

import (
	"math"

	"repro/internal/model"
)

// Params holds the Theorem 1 constants of an instance.
type Params struct {
	// AlphaMin and AlphaMax bound the receive-send ratios.
	AlphaMin, AlphaMax float64
	// Beta is the receiving-overhead spread over the destinations.
	Beta int64
	// C is the multiplicative constant 2*ceil(amax)/amin.
	C float64
}

// ParamsOf computes the Theorem 1 constants for a set.
func ParamsOf(set *model.MulticastSet) Params {
	rs := set.Ratios()
	return Params{
		AlphaMin: rs.AlphaMin,
		AlphaMax: rs.AlphaMax,
		Beta:     rs.Beta,
		C:        2 * math.Ceil(rs.AlphaMax) / rs.AlphaMin,
	}
}

// Bound evaluates the Theorem 1 guarantee for a given optimal reception
// completion time: greedy RT < C*optR + beta.
func (p Params) Bound(optR int64) float64 {
	return p.C*float64(optR) + float64(p.Beta)
}
