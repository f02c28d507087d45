// Package noalloc holds golden fixtures for the source half of the
// noalloc analyzer (directive placement; the compiler-backed half is
// exercised against canned compiler output in noalloc_test.go).
package noalloc

// hot is properly annotated: a doc-comment directive on a function with
// a body. The compiler check picks it up; no source finding.
//
//hnow:noalloc
func hot(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// stray directives attach to nothing and silently do nothing, which the
// analyzer treats as an error. The marker sits on the following line
// because the directive line must contain the directive alone.
//
//hnow:noalloc
var floorOfNothing int64 // want-above "no effect"

func inBody() {
	//hnow:noalloc
	_ = floorOfNothing // want-above "no effect"
}
