package model

// The engine's bandwidth-bound inner loops, extracted so they compile to
// straight-line streaming code: every kernel reslices its rows to a
// common length before the loop, which lets the compiler's prove pass
// eliminate all bounds checks, and keeps the loop bodies free of
// per-iteration branches on node metadata — the running maxima go
// through the max builtin, which lowers to conditional moves on
// amd64/arm64 instead of branches. Each kernel is //hnow:noalloc, so
// `hnowlint -escape` pins its remaining check_bce hits (the prologue
// reslices) in .github/noalloc_allowlist.txt. The straightforward scalar
// forms are kept in kernels_ref_test.go as the parity oracle for
// randomized cross-checks; the engine-level oracles remain
// model.ComputeTimes (engine parity suite + FuzzEngineMoves/
// FuzzBatchEval) and the from-scratch per-model evaluators of
// costmodel_ref_test.go (FuzzCostModelEngine).

// kernChildTimes fills one parent's contiguous children span with
// delivery and reception times by strength-reduced accumulation:
// d[i] = base + (i+1)*sv, r[i] = d[i] + rc[i].
//
//hnow:noalloc
func kernChildTimes(d, r, rc []int64, base, sv int64) {
	r = r[:len(d)]
	rc = rc[:len(d)]
	dd := base
	for i := range d {
		dd += sv
		d[i] = dd
		r[i] = dd + rc[i]
	}
}

// kernChildCand computes one parent's candidate child receptions into the
// stamped scratch row nr and returns the running maxima of the walked
// delivery and reception values. The delivery times themselves are not
// stored: only the receptions propagate to deeper layers.
//
//hnow:noalloc
func kernChildCand(nr, rc []int64, st []uint32, gen uint32, base, sv, movD, movR int64) (int64, int64) {
	rc = rc[:len(nr)]
	st = st[:len(nr)]
	dd := base
	for i := range nr {
		dd += sv
		rj := dd + rc[i]
		nr[i] = rj
		st[i] = gen
		movD = max(movD, dd)
		movR = max(movR, rj)
	}
	return movD, movR
}

// kernPrefixMax2 writes the exclusive prefix running maxima of rows a and
// b into preA and preB and returns the full maxima of both rows.
//
//hnow:noalloc
func kernPrefixMax2(preA, preB, a, b []int64) (mA, mB int64) {
	preB = preB[:len(preA)]
	a = a[:len(preA)]
	b = b[:len(preA)]
	runA, runB := int64(0), int64(0)
	for i := range preA {
		preA[i] = runA
		preB[i] = runB
		runA = max(runA, a[i])
		runB = max(runB, b[i])
	}
	return runA, runB
}

// kernSuffixMax2 writes the inclusive suffix running maxima of rows a and
// b into sufA and sufB.
//
//hnow:noalloc
func kernSuffixMax2(sufA, sufB, a, b []int64) {
	sufB = sufB[:len(sufA)]
	a = a[:len(sufA)]
	b = b[:len(sufA)]
	runA, runB := int64(0), int64(0)
	for i := len(sufA) - 1; i >= 0; i-- {
		runA = max(runA, a[i])
		runB = max(runB, b[i])
		sufA[i] = runA
		sufB[i] = runB
	}
}

// kernMax2 folds the maxima of two equal-length rows into the
// accumulators (the complement gap scan and the completion rescans).
//
//hnow:noalloc
func kernMax2(a, b []int64, mA, mB int64) (int64, int64) {
	b = b[:len(a)]
	for i := range a {
		mA = max(mA, a[i])
		mB = max(mB, b[i])
	}
	return mA, mB
}

// kernLaneStep advances one child position across every lane of a batch:
// per lane, the parent's send accumulator steps by its send overhead, the
// child's delivery adds the lane latency and its reception the lane
// receive overhead, and the per-lane completion maxima fold in the new
// values — so one pass over the batch rows both times the schedules and
// maintains the objective, with no second rescan of d and r.
//
//hnow:noalloc
func kernLaneStep(acc, sv, lat, rc, d, r, maxD, maxR []int64) {
	sv = sv[:len(acc)]
	lat = lat[:len(acc)]
	rc = rc[:len(acc)]
	d = d[:len(acc)]
	r = r[:len(acc)]
	maxD = maxD[:len(acc)]
	maxR = maxR[:len(acc)]
	for b := range acc {
		a := acc[b] + sv[b]
		acc[b] = a
		dv := a + lat[b]
		d[b] = dv
		rv := dv + rc[b]
		r[b] = rv
		maxD[b] = max(maxD[b], dv)
		maxR[b] = max(maxR[b], rv)
	}
}

// kernFill writes v into every element of row.
//
//hnow:noalloc
func kernFill(row []int64, v int64) {
	for i := range row {
		row[i] = v
	}
}

// kernChildRows fills the M-wide rows (M = len(fp)) of one parent's
// contiguous children span from the parent's row fp. Child i receives
// segment s at a_s = fp[s] + off + (i+1)*sv and is free after it at
// F[s] = max(F[s-1] + ks[i], a_s) + rc[i] (F[0] = a_0 + rc[i]); the row
// goes to rows[i*M:(i+1)*M], a_0 to d[i] and F[M-1] to r[i], and both
// fold into the returned running maxima.
//
//hnow:noalloc
func kernChildRows(rows, d, r, rc, ks, fp []int64, off, sv, movD, movR int64) (int64, int64) {
	m := len(fp)
	r = r[:len(d)]
	rc = rc[:len(d)]
	ks = ks[:len(d)]
	fp0 := fp[0]
	acc := off
	for i := range d {
		acc += sv
		row := rows[i*m : i*m+m]
		row = row[:len(fp)]
		k, rv := ks[i], rc[i]
		a := fp0 + acc
		f := a + rv
		row[0] = f
		for s := 1; s < len(fp); s++ {
			f = max(f+k, fp[s]+acc) + rv
			row[s] = f
		}
		d[i], r[i] = a, f
		movD = max(movD, a)
		movR = max(movR, f)
	}
	return movD, movR
}

// kernFoldReady folds a children span into a reverse ready time, from the
// last child to the first: busy = max(ready[i] + send[i] + lat, busy) + rv.
//
//hnow:noalloc
func kernFoldReady(ready, send []int64, lat, rv, busy int64) int64 {
	send = send[:len(ready)]
	for i := len(ready) - 1; i >= 0; i-- {
		busy = max(ready[i]+send[i]+lat, busy) + rv
	}
	return busy
}
