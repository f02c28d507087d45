package pqueue

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	var q PQ
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue returned ok")
	}
}

func TestOrdering(t *testing.T) {
	q := New(8)
	keys := []int64{5, 3, 9, 1, 7, 3, 2}
	for i, k := range keys {
		q.Push(i, k)
	}
	var got []int64
	for q.Len() > 0 {
		it, ok := q.Pop()
		if !ok {
			t.Fatal("Pop failed with items queued")
		}
		got = append(got, it.Key)
	}
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	for i := range sorted {
		if got[i] != sorted[i] {
			t.Fatalf("pop order %v, want %v", got, sorted)
		}
	}
}

func TestTieBreakInsertionOrder(t *testing.T) {
	q := New(4)
	q.Push(10, 7)
	q.Push(20, 7)
	q.Push(30, 7)
	want := []int{10, 20, 30}
	for _, w := range want {
		it, _ := q.Pop()
		if it.Value != w {
			t.Fatalf("tie-break order wrong: got %d, want %d", it.Value, w)
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	q := New(0)
	var mirror []int64
	for op := 0; op < 20000; op++ {
		if rng.Intn(3) != 0 || len(mirror) == 0 {
			k := int64(rng.Intn(1000))
			q.Push(op, k)
			mirror = append(mirror, k)
		} else {
			it, ok := q.Pop()
			if !ok {
				t.Fatal("Pop failed with items queued")
			}
			// Minimum of mirror must match.
			minI := 0
			for i, k := range mirror {
				if k < mirror[minI] {
					minI = i
				}
			}
			if it.Key != mirror[minI] {
				t.Fatalf("op %d: popped key %d, want %d", op, it.Key, mirror[minI])
			}
			mirror = append(mirror[:minI], mirror[minI+1:]...)
		}
	}
}

// TestHeapPropertyQuick drains random key sets and checks the output is
// sorted, as a property-based test.
func TestHeapPropertyQuick(t *testing.T) {
	f := func(keys []int64) bool {
		q := New(len(keys))
		for i, k := range keys {
			q.Push(i, k)
		}
		prev := int64(math.MinInt64)
		for q.Len() > 0 {
			it, ok := q.Pop()
			if !ok || it.Key < prev {
				return false
			}
			prev = it.Key
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, 1024)
	for i := range keys {
		keys[i] = int64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := New(len(keys))
		for j, k := range keys {
			q.Push(j, k)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}
