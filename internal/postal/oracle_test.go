package postal

import (
	"fmt"
	"math"
)

// Count and BroadcastTime evaluate the N_lambda recurrence of the package
// doc directly, so the tests use them as the oracle for OptimalTree.
// CompletionTime reads the postal completion off OptimalTree's own Finish
// times, so the parity tests use it as the oracle for model.NodeModel
// with unit costs.

// CompletionTime returns the postal completion time of the tree (the
// largest Finish), which for OptimalTree equals BroadcastTime.
func (t *Tree) CompletionTime() int64 {
	var m int64
	for _, f := range t.Finish {
		if f > m {
			m = f
		}
	}
	return m
}

// Count returns N_lambda(t): the maximum number of informed nodes
// (including the source) after t time units.
func Count(lambda int64, t int64) (int64, error) {
	if lambda < 1 {
		return 0, fmt.Errorf("postal: lambda must be >= 1, got %d", lambda)
	}
	if t < 0 {
		return 0, fmt.Errorf("postal: negative time %d", t)
	}
	if t < lambda {
		return 1, nil
	}
	// Iterative evaluation of the recurrence with a sliding window.
	window := make([]int64, lambda) // N(t-lambda) .. N(t-1)
	for i := int64(0); i < lambda; i++ {
		window[i] = 1
	}
	var cur int64
	for x := lambda; x <= t; x++ {
		cur = window[lambda-1] + window[0]
		if cur > math.MaxInt64/2 {
			return cur, nil // saturate; callers only compare against n
		}
		copy(window, window[1:])
		window[lambda-1] = cur
	}
	return cur, nil
}

// BroadcastTime returns the minimum postal-model time to broadcast from
// one source to n destinations.
func BroadcastTime(lambda int64, n int) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("postal: negative n")
	}
	if n == 0 {
		return 0, nil
	}
	target := int64(n) + 1
	for t := int64(0); ; t++ {
		c, err := Count(lambda, t)
		if err != nil {
			return 0, err
		}
		if c >= target {
			return t, nil
		}
	}
}
