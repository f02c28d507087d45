package exact

// This file retains the seed's recursive memoized solver essentially
// verbatim (minus reconstruction). It serves two purposes: the randomized
// cross-check tests compare the iterative pruned solver against it state
// for state, and BenchmarkFillAllReference measures it so the speedup of
// the layered solver stays visible.

import "repro/internal/model"

// refDP is the reference recursive implementation of the Lemma 4 dynamic
// program. It allocates two slices per solve call and enumerates every
// split with a blind odometer -- exactly the cost profile the iterative
// solver replaces. Not safe for concurrent use.
type refDP struct {
	dp *DP // geometry only (sorted types, dims, strides); no solver tables
	// value is the memo; a refDP never shares results with the iterative
	// solver it is checked against. Unlike the iterative solver, the memo
	// keeps one full plane per source type (no equal-Send plane sharing),
	// so it doubles as the non-dedup'd reference fill the store and dedup
	// differential tests compare against.
	value []int64
}

// unknown marks a memo entry the recursion has not evaluated yet.
const unknown = int64(-1)

// index is the reference's own state indexing: one full plane per source
// type, deliberately NOT the deduplicated planeOf indexing of DP.
func (r *refDP) index(s int, vecState int64) int64 {
	return int64(s)*r.dp.prod + vecState
}

// newReference creates a reference DP with the same validation and type
// ordering as New, but with only the memo table allocated, matching the
// seed solver's memory profile.
func newReference(latency int64, types []Type, counts []int) (*refDP, error) {
	dp, err := newGeometry(latency, types, counts)
	if err != nil {
		return nil, err
	}
	r := &refDP{dp: dp, value: make([]int64, int64(len(dp.types))*dp.prod)}
	for i := range r.value {
		r.value[i] = unknown
	}
	return r, nil
}

// Optimal returns T(srcType, counts) computed by the recursive solver.
func (r *refDP) Optimal(srcType int, counts []int) (int64, error) {
	if err := r.dp.checkQuery(srcType, counts); err != nil {
		return 0, err
	}
	vec := append([]int(nil), counts...)
	return r.solve(srcType, vec), nil
}

// FillAll evaluates every state recursively, mirroring the seed FillAll.
func (r *refDP) FillAll() {
	dp := r.dp
	k := len(dp.types)
	vec := make([]int, k)
	for s := 0; s < k; s++ {
		for j := range vec {
			vec[j] = dp.counts[j]
		}
		r.solve(s, vec)
		for st := int64(0); st < dp.prod; st++ {
			if r.value[r.index(s, st)] == unknown {
				dp.decodeVec(st, vec)
				r.solve(s, vec)
			}
		}
	}
}

// Value returns the memoized value for a state, or unknown.
func (r *refDP) Value(srcType int, vecState int64) int64 {
	return r.value[r.index(srcType, vecState)]
}

// solve is the seed recursive evaluation of the Lemma 4 recurrence with
// memoization. vec is mutated during the call but restored before
// returning.
func (r *refDP) solve(s int, vec []int) int64 {
	dp := r.dp
	vecState := dp.encodeVec(vec)
	idx := r.index(s, vecState)
	if v := r.value[idx]; v != unknown {
		return v
	}
	k := len(dp.types)
	total := 0
	for _, v := range vec {
		total += v
	}
	if total == 0 {
		r.value[idx] = 0
		return 0
	}
	S, L := dp.types[s].Send, dp.latency
	best := inf
	y := make([]int, k)
	rem := make([]int, k)
	for l := 0; l < k; l++ {
		if vec[l] == 0 {
			continue
		}
		vec[l]-- // reserve the node of type l that receives first
		// Enumerate every split y <= vec componentwise with an odometer.
		for j := range y {
			y[j] = 0
		}
		for {
			for j := range rem {
				rem[j] = vec[j] - y[j]
			}
			a := r.solve(l, y) + S + L + dp.types[l].Recv
			b := r.solve(s, rem) + S
			v := a
			if b > v {
				v = b
			}
			if v < best {
				best = v
			}
			j := 0
			for ; j < k; j++ {
				if y[j] < vec[j] {
					y[j]++
					break
				}
				y[j] = 0
			}
			if j == k {
				break
			}
		}
		vec[l]++
	}
	r.value[idx] = best
	return best
}

// referenceFillAllRT builds the full table with the reference recursive
// solver and returns the full-instance optimum. It exists so
// BenchmarkFillAllReference can measure the seed solver's table-fill
// cost.
func referenceFillAllRT(set *model.MulticastSet) (int64, error) {
	inst, err := Analyze(set)
	if err != nil {
		return 0, err
	}
	ref, err := newReference(set.Latency, inst.Types, inst.Counts)
	if err != nil {
		return 0, err
	}
	ref.FillAll()
	return ref.Optimal(inst.SourceType, inst.Counts)
}
