// Package pqueue provides the binary min-heap priority queue used by the
// greedy multicast scheduler (Lemma 1 of the paper maintains schedule nodes
// in a priority queue keyed by their next earliest delivery time).
//
// The queue stores integer values with int64 keys and breaks key ties by
// insertion sequence, making every algorithm built on it fully
// deterministic.
package pqueue

// Item is an entry in the queue.
type Item struct {
	// Value is the caller's payload, typically a node ID.
	Value int
	// Key is the priority; smaller keys pop first.
	Key int64
	seq uint64
}

// PQ is a binary min-heap. The zero value is an empty, ready-to-use queue.
type PQ struct {
	heap []Item
	seq  uint64
}

// New returns an empty queue with capacity for hint items.
func New(hint int) *PQ {
	return &PQ{heap: make([]Item, 0, hint)}
}

// Len returns the number of queued items.
func (q *PQ) Len() int { return len(q.heap) }

// Push inserts value with the given key in O(log n).
func (q *PQ) Push(value int, key int64) {
	q.seq++
	q.heap = append(q.heap, Item{Value: value, Key: key, seq: q.seq})
	q.up(len(q.heap) - 1)
}

// Pop removes and returns the minimum item in O(log n). Ties on Key pop in
// insertion order. ok is false if the queue is empty.
func (q *PQ) Pop() (it Item, ok bool) {
	if len(q.heap) == 0 {
		return Item{}, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return top, true
}

func (q *PQ) less(i, j int) bool {
	if q.heap[i].Key != q.heap[j].Key {
		return q.heap[i].Key < q.heap[j].Key
	}
	return q.heap[i].seq < q.heap[j].seq
}

func (q *PQ) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		i = p
	}
}

func (q *PQ) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}
