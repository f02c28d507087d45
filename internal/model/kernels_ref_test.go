package model

import (
	"math/rand"
	"testing"
)

// The straightforward scalar forms of every kernel in kernels.go, kept as
// the parity oracle: the kernels are restructured for bounds-check
// elimination and branch-free maxima, and these references are the code
// they must remain bit-identical to. Randomized cross-checks below cover
// empty spans, single elements, and adversarially tied values.

func refChildTimes(d, r, rc []int64, base, sv int64) {
	for i := range d {
		d[i] = base + int64(i+1)*sv
		r[i] = d[i] + rc[i]
	}
}

func refChildCand(nr, rc []int64, st []uint32, gen uint32, base, sv, movD, movR int64) (int64, int64) {
	for i := range nr {
		dd := base + int64(i+1)*sv
		nr[i] = dd + rc[i]
		st[i] = gen
		if dd > movD {
			movD = dd
		}
		if nr[i] > movR {
			movR = nr[i]
		}
	}
	return movD, movR
}

func refPrefixMax2(preA, preB, a, b []int64) (int64, int64) {
	runA, runB := int64(0), int64(0)
	for i := range preA {
		preA[i], preB[i] = runA, runB
		if a[i] > runA {
			runA = a[i]
		}
		if b[i] > runB {
			runB = b[i]
		}
	}
	return runA, runB
}

func refSuffixMax2(sufA, sufB, a, b []int64) {
	runA, runB := int64(0), int64(0)
	for i := len(sufA) - 1; i >= 0; i-- {
		if a[i] > runA {
			runA = a[i]
		}
		if b[i] > runB {
			runB = b[i]
		}
		sufA[i], sufB[i] = runA, runB
	}
}

func refMax2(a, b []int64, mA, mB int64) (int64, int64) {
	for i := range a {
		if a[i] > mA {
			mA = a[i]
		}
		if b[i] > mB {
			mB = b[i]
		}
	}
	return mA, mB
}

func refLaneStep(acc, sv, lat, rc, d, r, maxD, maxR []int64) {
	for b := range acc {
		acc[b] += sv[b]
		d[b] = acc[b] + lat[b]
		r[b] = d[b] + rc[b]
		if d[b] > maxD[b] {
			maxD[b] = d[b]
		}
		if r[b] > maxR[b] {
			maxR[b] = r[b]
		}
	}
}

func refChildRows(rows, d, r, rc, ks, fp []int64, off, sv, movD, movR int64) (int64, int64) {
	m := len(fp)
	for i := range d {
		acc := off + int64(i+1)*sv
		free := int64(0)
		for s := 0; s < m; s++ {
			arrive := fp[s] + acc
			if s > 0 && free+ks[i] > arrive {
				arrive = free + ks[i]
			}
			free = arrive + rc[i]
			rows[i*m+s] = free
		}
		d[i], r[i] = fp[0]+acc, free
		if d[i] > movD {
			movD = d[i]
		}
		if r[i] > movR {
			movR = r[i]
		}
	}
	return movD, movR
}

func refFoldReady(ready, send []int64, lat, rv, busy int64) int64 {
	for i := len(ready) - 1; i >= 0; i-- {
		arrive := ready[i] + send[i] + lat
		if busy > arrive {
			arrive = busy
		}
		busy = arrive + rv
	}
	return busy
}

// randRow draws a row of small values with frequent ties: tied maxima are
// where a wrong comparison direction or off-by-one would hide.
func randRow(rng *rand.Rand, n int) []int64 {
	row := make([]int64, n)
	for i := range row {
		row[i] = int64(rng.Intn(7))
	}
	return row
}

func eqRows(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKernelsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(20) // includes empty spans
		base := int64(rng.Intn(50))
		sv := int64(1 + rng.Intn(5))
		rc := randRow(rng, n)

		d1, r1 := make([]int64, n), make([]int64, n)
		d2, r2 := make([]int64, n), make([]int64, n)
		kernChildTimes(d1, r1, rc, base, sv)
		refChildTimes(d2, r2, rc, base, sv)
		if !eqRows(d1, d2) || !eqRows(r1, r2) {
			t.Fatalf("trial %d: kernChildTimes diverges: d %v vs %v, r %v vs %v", trial, d1, d2, r1, r2)
		}

		movD, movR := int64(rng.Intn(60)), int64(rng.Intn(60))
		gen := uint32(1 + rng.Intn(3))
		nr1, st1 := make([]int64, n), make([]uint32, n)
		nr2, st2 := make([]int64, n), make([]uint32, n)
		gd1, gr1 := kernChildCand(nr1, rc, st1, gen, base, sv, movD, movR)
		gd2, gr2 := refChildCand(nr2, rc, st2, gen, base, sv, movD, movR)
		if gd1 != gd2 || gr1 != gr2 || !eqRows(nr1, nr2) {
			t.Fatalf("trial %d: kernChildCand diverges: maxima %d/%d vs %d/%d, rows %v vs %v",
				trial, gd1, gr1, gd2, gr2, nr1, nr2)
		}
		for i := range st1 {
			if st1[i] != gen || st2[i] != gen {
				t.Fatalf("trial %d: stamp not written at %d", trial, i)
			}
		}

		a, b := randRow(rng, n), randRow(rng, n)
		pA1, pB1 := make([]int64, n), make([]int64, n)
		pA2, pB2 := make([]int64, n), make([]int64, n)
		mA1, mB1 := kernPrefixMax2(pA1, pB1, a, b)
		mA2, mB2 := refPrefixMax2(pA2, pB2, a, b)
		if mA1 != mA2 || mB1 != mB2 || !eqRows(pA1, pA2) || !eqRows(pB1, pB2) {
			t.Fatalf("trial %d: kernPrefixMax2 diverges on a=%v b=%v", trial, a, b)
		}

		sA1, sB1 := make([]int64, n), make([]int64, n)
		sA2, sB2 := make([]int64, n), make([]int64, n)
		kernSuffixMax2(sA1, sB1, a, b)
		refSuffixMax2(sA2, sB2, a, b)
		if !eqRows(sA1, sA2) || !eqRows(sB1, sB2) {
			t.Fatalf("trial %d: kernSuffixMax2 diverges on a=%v b=%v", trial, a, b)
		}

		xA1, xB1 := kernMax2(a, b, movD, movR)
		xA2, xB2 := refMax2(a, b, movD, movR)
		if xA1 != xA2 || xB1 != xB2 {
			t.Fatalf("trial %d: kernMax2 = %d/%d, reference %d/%d", trial, xA1, xB1, xA2, xB2)
		}

		acc1, acc2 := randRow(rng, n), make([]int64, n)
		copy(acc2, acc1)
		svr, lat := randRow(rng, n), randRow(rng, n)
		ld1, lr1 := make([]int64, n), make([]int64, n)
		ld2, lr2 := make([]int64, n), make([]int64, n)
		mD1, mR1 := randRow(rng, n), randRow(rng, n)
		mD2, mR2 := make([]int64, n), make([]int64, n)
		copy(mD2, mD1)
		copy(mR2, mR1)
		kernLaneStep(acc1, svr, lat, rc, ld1, lr1, mD1, mR1)
		refLaneStep(acc2, svr, lat, rc, ld2, lr2, mD2, mR2)
		if !eqRows(acc1, acc2) || !eqRows(ld1, ld2) || !eqRows(lr1, lr2) ||
			!eqRows(mD1, mD2) || !eqRows(mR1, mR2) {
			t.Fatalf("trial %d: kernLaneStep diverges", trial)
		}

		m := 1 + rng.Intn(6)
		fp, ks := randRow(rng, m), randRow(rng, n)
		for s := 1; s < m; s++ {
			fp[s] += fp[s-1] // a parent row is nondecreasing
		}
		rows1, rows2 := make([]int64, n*m), make([]int64, n*m)
		cd1, cr1 := make([]int64, n), make([]int64, n)
		cd2, cr2 := make([]int64, n), make([]int64, n)
		rD1, rR1 := kernChildRows(rows1, cd1, cr1, rc, ks, fp, base, sv, movD, movR)
		rD2, rR2 := refChildRows(rows2, cd2, cr2, rc, ks, fp, base, sv, movD, movR)
		if rD1 != rD2 || rR1 != rR2 || !eqRows(rows1, rows2) || !eqRows(cd1, cd2) || !eqRows(cr1, cr2) {
			t.Fatalf("trial %d: kernChildRows diverges: maxima %d/%d vs %d/%d, rows %v vs %v",
				trial, rD1, rR1, rD2, rR2, rows1, rows2)
		}

		busy := int64(rng.Intn(30))
		if got, want := kernFoldReady(a, svr, base, sv, busy), refFoldReady(a, svr, base, sv, busy); got != want {
			t.Fatalf("trial %d: kernFoldReady = %d, reference %d", trial, got, want)
		}

		fill := randRow(rng, n)
		v := int64(rng.Intn(9))
		kernFill(fill, v)
		for i := range fill {
			if fill[i] != v {
				t.Fatalf("trial %d: kernFill left %d at %d", trial, fill[i], i)
			}
		}
	}
}
