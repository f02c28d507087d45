package exact

import (
	"testing"
	"unsafe"
)

// TestFillScratchNoSharedLines guards the parallel fill's layout: in the
// scratch fillLayers uses for 4 workers, every byte one worker writes
// (vec, y, corner and the cols tally) lies at least 128 bytes — two cache
// lines — from every byte another worker writes, for k = 1..5. Packing
// the scratches back to back once made the pool slower than the
// sequential fill.
func TestFillScratchNoSharedLines(t *testing.T) {
	const workers, minGap = 4, 128
	type span struct{ lo, hi uintptr }
	ints := func(s []int) span {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
		return span{lo, lo + uintptr(len(s))*unsafe.Sizeof(s[0])}
	}
	for k := 1; k <= 5; k++ {
		types := make([]Type, k)
		counts := make([]int, k)
		for j := range types {
			types[j] = Type{Send: int64(j + 1), Recv: int64(2*j + 1)}
			counts[j] = 2
		}
		dp, err := New(1, types, counts)
		if err != nil {
			t.Fatal(err)
		}
		scr := dp.newScratch(workers)
		written := make([][]span, workers)
		for w := range scr {
			sc := &scr[w]
			if len(sc.vec) != k || len(sc.y) != k || len(sc.corner) != k-1 {
				t.Fatalf("k=%d worker %d: scratch lengths %d/%d/%d", k, w, len(sc.vec), len(sc.y), len(sc.corner))
			}
			cols := uintptr(unsafe.Pointer(&sc.cols))
			written[w] = []span{ints(sc.vec), ints(sc.y), ints(sc.corner), {cols, cols + unsafe.Sizeof(sc.cols)}}
		}
		for a := range written {
			for b := a + 1; b < workers; b++ {
				for _, x := range written[a] {
					for _, y := range written[b] {
						var gap uintptr
						switch {
						case y.lo >= x.hi:
							gap = y.lo - x.hi
						case x.lo >= y.hi:
							gap = x.lo - y.hi
						}
						if gap < minGap {
							t.Fatalf("k=%d: workers %d and %d write bytes %d apart ([%#x,%#x) and [%#x,%#x)), want >= %d",
								k, a, b, gap, x.lo, x.hi, y.lo, y.hi, minGap)
						}
					}
				}
			}
		}
	}
}
