package exact

import "sync"

// tableLifecycle tracks a table's backing memory: for mapped tables the
// mmap region that must be unmapped exactly once, after the owner has
// closed the table AND every in-flight borrow has been released. Heap
// tables carry the same bookkeeping with a nil region, so callers never
// branch on the load path.
//
// The protocol: the creator (OpenTableMapped, BuildTable, ReadTableBytes…)
// owns the table. Ownership transfers by convention (e.g. into a cache);
// the final owner calls Close. Concurrent borrowers — a lookup racing an
// eviction — bracket access with Retain/Release. The unmap happens on
// whichever of Close / last Release runs second, so a retained table's
// memory is always valid even after Close.
type tableLifecycle struct {
	mu     sync.Mutex
	refs   int
	closed bool
	mapped []byte // non-nil while an mmap region backs the table
}

// Retain registers an in-flight borrow of the table: until the matching
// Release, a Close will not unmap the backing memory. Retain must only be
// called while the table is reachable through a live owner (e.g. under
// the lock of the cache that holds it), never after Close has returned
// with zero borrows outstanding.
func (t *Table) Retain() {
	t.lc.mu.Lock()
	t.lc.refs++
	t.lc.mu.Unlock()
}

// Release ends a Retain. If the table has been closed and this was the
// last borrow, the backing mmap (if any) is unmapped now.
func (t *Table) Release() {
	t.lc.mu.Lock()
	t.lc.refs--
	m := t.lc.takeUnmappableLocked()
	t.lc.mu.Unlock()
	if m != nil {
		munmapTable(m)
	}
}

// Close marks the table dead. The backing mmap (if any) is unmapped once
// the last outstanding Retain is released — immediately, when there is
// none. Close is idempotent; for heap-owned tables it only flips the
// bookkeeping and the garbage collector does the rest.
func (t *Table) Close() error {
	t.lc.mu.Lock()
	t.lc.closed = true
	m := t.lc.takeUnmappableLocked()
	t.lc.mu.Unlock()
	if m != nil {
		return munmapTable(m)
	}
	return nil
}

// takeUnmappableLocked claims the mmap region for unmapping when the
// table is closed with no borrows left, clearing it so the unmap happens
// exactly once.
func (lc *tableLifecycle) takeUnmappableLocked() []byte {
	if !lc.closed || lc.refs > 0 || lc.mapped == nil {
		return nil
	}
	m := lc.mapped
	lc.mapped = nil
	return m
}

// Mapped reports whether the table's value array aliases a
// read-only file mapping (the OpenTableMapped path on supported hosts)
// rather than heap memory.
func (t *Table) Mapped() bool {
	t.lc.mu.Lock()
	defer t.lc.mu.Unlock()
	return t.lc.mapped != nil
}

// SizeBytes is the table's resident cost for budgeting purposes: the
// mapping length for mapped tables (page-cache pressure), the value
// planes for heap tables. Small fixed-size metadata is ignored.
func (t *Table) SizeBytes() int64 {
	t.lc.mu.Lock()
	mapped := t.lc.mapped
	t.lc.mu.Unlock()
	if mapped != nil {
		return int64(len(mapped))
	}
	// A Table's DP is filled, and the fill freed its prefix-minimum
	// state, so the value planes are all it holds.
	return 8 * int64(len(t.dp.value))
}
