package service

import (
	"encoding/json"
	"errors"
	"expvar"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exact"
	"repro/internal/model"
)

var (
	expTableBuilds     = expvar.NewInt("hnowd.table.builds")
	expTableHits       = expvar.NewInt("hnowd.table.hits")
	expTableDiskHits   = expvar.NewInt("hnowd.table.disk_hits")
	expTableDiskLoads  = expvar.NewInt("hnowd.table.disk_loads")
	expTableDiskWrites = expvar.NewInt("hnowd.table.disk_writes")
	expTableDiskErrors = expvar.NewInt("hnowd.table.disk_errors")
	expTableEvictions  = expvar.NewInt("hnowd.table.evictions")
	// expTableMappedBytes / expTableHeapBytes gauge the bytes of cached
	// tables by ownership: mapped tables cost page cache, heap tables cost
	// the Go heap. Both count toward the one TableMemBytes budget.
	expTableMappedBytes = expvar.NewInt("hnowd.table.mapped_bytes")
	expTableHeapBytes   = expvar.NewInt("hnowd.table.heap_bytes")
)

// Table source labels reported in TableResponse.Cache.
const (
	// TableCacheHit: the table was already materialized in memory.
	TableCacheHit = "hit"
	// TableCacheMiss: the table was built by this request.
	TableCacheMiss = "miss"
	// TableCacheDisk: the table was loaded from the -table-dir spill
	// persisted by an earlier build (possibly before a restart).
	TableCacheDisk = "disk"
	// TableCachePeer: the table was fetched from its fleet owner and
	// ingested (re-validated, cached, spilled) by this request.
	TableCachePeer = "peer"
)

// TableRequest asks the service to materialize (or reuse) the full optimal
// multicast table for the set's network — the constant-time lookup
// structure of Theorem 2's closing remark. The set describes the network:
// its latency, its source, and the full destination inventory the table
// should cover.
type TableRequest struct {
	Set json.RawMessage `json:"set"`
	// Parallelism caps the fill worker pool (0 = server default).
	Parallelism int `json:"parallelism,omitempty"`
}

// TableResponse is the reply to POST /v1/table.
type TableResponse struct {
	// Key is the network key the table is cached under.
	Key string `json:"key"`
	// Cache reports where the table came from: "hit" (already in
	// memory), "miss" (built by this request), "disk" (loaded from the
	// -table-dir spill, e.g. after a daemon restart) or "peer" (fetched
	// from its fleet owner and ingested by this request).
	Cache string `json:"cache"`
	K     int    `json:"k"`
	// States is the number of precomputed DP states.
	States int64 `json:"states"`
	// Counts is the per-type destination inventory the table covers.
	Counts []int `json:"counts"`
	// OptimalRT is the optimal reception completion time of the full
	// multicast (the source to every destination in the set).
	OptimalRT int64 `json:"optimal_rt"`
	// BuildMillis is the wall-clock fill time; 0 on a cache or disk hit.
	BuildMillis int64 `json:"build_ms"`
	// Mapped reports whether the warm table's arrays alias a read-only
	// file mapping (the mmap load path) rather than heap memory.
	Mapped bool `json:"mapped,omitempty"`
	// SizeBytes is the table's resident cost against the server's table
	// memory budget (mapping length when mapped, array bytes otherwise).
	SizeBytes int64 `json:"size_bytes"`
	// Fleet reports this replica's role for the request in fleet mode:
	// "owner" (this replica owns the key), "peer" (the table was just
	// fetched from the owner) or "fallback" (local build because the
	// owner was unreachable). Empty outside fleet mode and for
	// non-owner local cache hits.
	Fleet string `json:"fleet,omitempty"`
}

// FromDisk reports whether the table was warmed from the persisted spill
// (-table-dir) rather than built or found in memory.
func (r *TableResponse) FromDisk() bool { return r.Cache == TableCacheDisk }

// networkKey identifies a network for table caching: latency plus the
// multiset of node types with destination counts. The source's type is in
// the inventory (possibly with destination count 0) but is otherwise not
// part of the key — a table covers every source type, so warming the same
// inventory from differently-typed sources reuses one table. Permutations
// of the same inventory collide.
func networkKey(latency int64, types []exact.Type, counts []int) string {
	var b strings.Builder
	b.Grow(24 + 16*len(types))
	b.WriteString("L=")
	b.WriteString(strconv.FormatInt(latency, 10))
	for j, t := range types {
		b.WriteByte('|')
		b.WriteString(strconv.FormatInt(t.Send, 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(t.Recv, 10))
		b.WriteByte('x')
		b.WriteString(strconv.Itoa(counts[j]))
	}
	return b.String()
}

// maxConcurrentTableBuilds bounds the DP fills in flight across keys:
// every table build (for /v1/table, the fleet build-and-stream, and the
// "optimal" answers of /v1/compare, /v1/schedule and /v1/render) and
// every sweep trial of the exact solver. A fill allocates 8·(k+1) bytes
// per stored state (exact.New: the value plane, the pivot prefix minima
// and k−1 cascade planes; the last two are freed when the fill ends),
// and a network may store up to exact.MaxStates = 2^26 states: 1.5 GiB
// for k=2, 2 GiB for k=3 and 2.5 GiB for k=4 per fill, plus 4 bytes per
// count vector of layer order. So the memory risk is per-build, not
// per-entry: distinct networks build concurrently up to this cap and
// queue beyond it.
const maxConcurrentTableBuilds = 2

// defaultTableMemBytes is the default byte budget for cached tables.
const defaultTableMemBytes = int64(1) << 30

// tableCache holds materialized DP tables under a byte budget (tables
// are orders of magnitude bigger than plans, so the budget usually
// admits a handful of whole networks). Per-key in-flight tracking in
// resolve makes concurrent warms of the same network load, fetch or
// build once — including propagating a failure to everyone who was
// waiting on it — while distinct networks proceed in parallel. Tables
// are borrowed with Retain/Release so evicting a mapped table never
// unmaps memory a concurrent lookup is still reading.
type tableCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	dir      string       // "" = no disk spill
	entries  []tableEntry // front = most recently used
	inflight map[string]*tableFlight
	buildSem chan struct{}
	index    *spillIndex // nil when dir == ""

	// builds is this cache's own count of DP table fills (the expvar
	// aggregates across every cache in the process). Fleet tests and
	// hnowload read it per replica to prove single fleet-wide builds.
	builds atomic.Int64
}

type tableEntry struct {
	key   string
	table *exact.Table
	bytes int64
}

// tableFlight is one in-flight resolve of a key: waiters block on done
// and then read err instead of redoing the work. A nil err means the
// table was promoted into the cache; errNoTable means a spill-only
// resolve found nothing (a waiter with a miss of its own still tries);
// any other err is the miss's failure, shared with the waiting cohort.
type tableFlight struct {
	done chan struct{}
	err  error
}

func newTableCache(maxBytes int64, dir string) *tableCache {
	if maxBytes <= 0 {
		maxBytes = defaultTableMemBytes
	}
	c := &tableCache{
		maxBytes: maxBytes,
		dir:      dir,
		inflight: make(map[string]*tableFlight),
		buildSem: make(chan struct{}, maxConcurrentTableBuilds),
	}
	if dir != "" {
		// Best effort: a failed mkdir surfaces as disk_errors on first use.
		os.MkdirAll(dir, 0o755)
		c.index = newSpillIndex(dir)
	}
	return c
}

// loadFromDisk tries the spill for a persisted table matching key,
// preferring the mmap load path. The index routes: it was built from a
// full scan at startup and is maintained on every write, so covering
// queries never touch the directory. An exact-key miss still probes the
// key's canonical sharded path — one open syscall, usually ENOENT — so
// a table dropped into a running daemon's -table-dir by a CLI pre-build
// is found (and indexed) without a restart. The file header is validated
// against the key (the name is only a hash locator), so a stale, renamed
// or foreign file is never trusted. An indexed file that turns out
// missing or invalid is dropped from the index so covering queries stop
// routing to it; a transient open/map failure (fd pressure, ENOMEM)
// keeps the entry — the file is presumed fine and will be retried.
func (c *tableCache) loadFromDisk(key string) (*exact.Table, bool) {
	if c.index == nil {
		return nil, false
	}
	path := c.index.pathFor(key)
	probe := path == ""
	if probe {
		path = filepath.Join(c.dir, spillRel(key))
	}
	t, err := exact.OpenTableMapped(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			if !probe {
				c.index.remove(key) // stale entry: the file is gone
			}
			return nil, false
		}
		expTableDiskLoads.Add(1)
		expTableDiskErrors.Add(1)
		if !probe && errors.Is(err, exact.ErrBadTable) {
			c.index.remove(key) // broken file: stop covering routes to it
		}
		return nil, false
	}
	expTableDiskLoads.Add(1)
	if networkKey(t.Latency(), t.Types(), t.Counts()) != key {
		expTableDiskErrors.Add(1)
		t.Close()
		if !probe {
			c.index.remove(key)
		}
		return nil, false
	}
	if probe {
		// Found out-of-band (written after startup): index it so covering
		// queries see it too.
		c.index.put(key, path, &exact.TableHeader{
			Latency: t.Latency(), Types: t.Types(), Counts: t.Counts(), Planes: t.Planes(),
		})
	}
	expTableDiskHits.Add(1)
	return t, true
}

// saveToDisk spills a freshly built table into the sharded layout
// (atomic temp-file + rename) and records it in the index. Failures only
// count toward disk_errors: persistence is an optimization, never a
// reason to fail the build that produced the table.
func (c *tableCache) saveToDisk(key string, t *exact.Table) {
	if c.dir == "" {
		return
	}
	path := filepath.Join(c.dir, spillRel(key))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		expTableDiskErrors.Add(1)
		return
	}
	if err := exact.WriteTableFile(path, t); err != nil {
		expTableDiskErrors.Add(1)
		return
	}
	expTableDiskWrites.Add(1)
	if c.index != nil {
		c.index.put(key, path, &exact.TableHeader{
			Latency: t.Latency(), Types: t.Types(), Counts: t.Counts(), Planes: t.Planes(),
		})
	}
}

// retainLocked returns the cached table for key with a borrow taken and
// its recency refreshed. Callers must Release the table when done.
//
//hnow:borrows
func (c *tableCache) retainLocked(key string) (*exact.Table, bool) {
	for i, e := range c.entries {
		if e.key == key {
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = e
			e.table.Retain()
			return e.table, true
		}
	}
	return nil, false
}

// addBytesGauge tracks cached-table bytes by ownership (delta may be
// negative on eviction).
func addBytesGauge(t *exact.Table, delta int64) {
	if t.Mapped() {
		expTableMappedBytes.Add(delta)
	} else {
		expTableHeapBytes.Add(delta)
	}
}

// putLocked inserts a table (transferring the creator's ownership to the
// cache) and evicts least-recently-used entries until the byte budget
// holds. The newest entry always stays, even alone over budget —
// otherwise an oversized network would thrash instead of serving.
// Evicted tables are closed; a mapped table's memory lives on until the
// last in-flight borrow releases it.
func (c *tableCache) putLocked(key string, t *exact.Table) {
	bytes := t.SizeBytes()
	for i, e := range c.entries {
		if e.key == key {
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = tableEntry{key: key, table: t, bytes: bytes}
			c.bytes += bytes - e.bytes
			addBytesGauge(t, bytes)
			addBytesGauge(e.table, -e.bytes)
			e.table.Close()
			c.evictLocked()
			return
		}
	}
	c.entries = append(c.entries, tableEntry{})
	copy(c.entries[1:], c.entries[:len(c.entries)-1])
	c.entries[0] = tableEntry{key: key, table: t, bytes: bytes}
	c.bytes += bytes
	addBytesGauge(t, bytes)
	c.evictLocked()
}

func (c *tableCache) evictLocked() {
	for len(c.entries) > 1 && c.bytes > c.maxBytes {
		last := len(c.entries) - 1
		e := c.entries[last]
		c.entries[last] = tableEntry{}
		c.entries = c.entries[:last]
		c.bytes -= e.bytes
		addBytesGauge(e.table, -e.bytes)
		expTableEvictions.Add(1)
		e.table.Close()
	}
}

// lookupSet answers a multicast from any cached table that covers it (the
// constant-time path for /v1/compare's exact optimum). Every candidate is
// borrowed for the duration of its lookup, so a concurrent eviction
// cannot unmap memory mid-read.
func (c *tableCache) lookupSet(set *model.MulticastSet) (int64, bool) {
	c.mu.Lock()
	tables := make([]*exact.Table, len(c.entries))
	for i, e := range c.entries {
		e.table.Retain()
		tables[i] = e.table
	}
	c.mu.Unlock()
	rt, ok := int64(0), false
	for _, t := range tables {
		if !ok {
			if v, o := t.LookupSet(set); o {
				rt, ok = v, true
				expTableHits.Add(1)
			}
		}
		t.Release()
	}
	return rt, ok
}

// errNoTable reports that a memory-and-spill-only resolve found no
// table for the key.
var errNoTable = errors.New("no table for key")

// resolve is the one single-flight path to a table: memory, then the
// spill, then miss — at most once per key. Concurrent callers of one
// key wait for the in-flight flight and share its outcome, while
// distinct keys proceed in parallel. A failed miss is shared with the
// whole waiting cohort but not cached, so the next caller runs miss
// again. A nil miss means memory and spill only: a miss then fails with
// errNoTable, which spill-only waiters share and waiters with a miss of
// their own retry past. Spilled tables are promoted without being
// rewritten; a table from miss is spilled once its flight has closed.
// On success the source is TableCacheHit, TableCacheDisk or the one
// miss reported, and the table is borrowed: the caller must Release it.
//
//hnow:borrows
func (c *tableCache) resolve(key string, miss func() (*exact.Table, string, error)) (*exact.Table, string, error) {
	for {
		c.mu.Lock()
		if t, ok := c.retainLocked(key); ok {
			c.mu.Unlock()
			expTableHits.Add(1)
			return t, TableCacheHit, nil
		}
		if fl, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-fl.done
			if fl.err != nil && (miss == nil || fl.err != errNoTable) {
				return nil, "", fl.err // share the cohort's failure
			}
			continue // promoted to the cache, or a spill-only miss to retry past
		}
		// The cache re-check and flight registration share one critical
		// section, so a load or build finishing between them cannot be redone.
		fl := &tableFlight{done: make(chan struct{})}
		c.inflight[key] = fl
		c.mu.Unlock()

		var err error
		source := TableCacheDisk
		t, ok := c.loadFromDisk(key)
		switch {
		case ok:
		case miss == nil:
			err = errNoTable
		default:
			t, source, err = miss()
		}
		c.mu.Lock()
		if err == nil {
			c.putLocked(key, t)
			t.Retain()
		}
		fl.err = err
		delete(c.inflight, key)
		c.mu.Unlock()
		close(fl.done)
		if err == nil && source != TableCacheDisk {
			c.saveToDisk(key, t)
		}
		return t, source, err
	}
}

// lookupSetAny is lookupSet with a disk fallback: a set not covered by
// any in-memory table is answered from the spill — first the file keyed
// by the set's own inventory, then the in-memory spill index for any
// persisted network that covers the set (the disk analogue of
// lookupSet's covering semantics, so a restart keeps serving
// sub-multicasts too) with zero directory or header I/O. The covering
// table is promoted into the in-memory cache; no DP is ever refilled
// here.
func (c *tableCache) lookupSetAny(set *model.MulticastSet) (int64, bool) {
	if rt, ok := c.lookupSet(set); ok {
		return rt, true
	}
	if c.index == nil {
		return 0, false
	}
	inst, err := exact.Analyze(set)
	if err != nil {
		return 0, false
	}
	key := networkKey(inst.Set.Latency, inst.Types, inst.Counts)
	if t, _, err := c.resolve(key, nil); err == nil {
		rt, err := t.Lookup(inst.SourceType, inst.Counts)
		t.Release()
		if err == nil {
			return rt, true
		}
		return 0, false
	}
	// No exact-inventory file; consult the index (in-memory Covers
	// checks — the disk is only touched to load a match).
	for _, coverKey := range c.index.coveringKeys(set) {
		t, _, err := c.resolve(coverKey, nil)
		if err != nil {
			continue
		}
		rt, ok := t.LookupSet(set)
		t.Release()
		if ok {
			return rt, true
		}
	}
	return 0, false
}

// getOrBuild resolves the table for the analyzed instance, building it
// (with the given fill parallelism) when neither memory nor the spill
// has it. It is the one place hnowd fills a DP table, and every fill
// holds the build semaphore. The reported build time is the fill alone,
// from holding the semaphore until the DP returns (caching and spilling
// excluded); it is 0 unless this call filled. The returned source is
// one of TableCacheHit, TableCacheDisk or TableCacheMiss; the table is
// borrowed and must be Released by the caller.
//
//hnow:borrows
func (c *tableCache) getOrBuild(inst *exact.Instance, workers int) (*exact.Table, string, time.Duration, error) {
	var buildTime time.Duration
	t, source, err := c.resolve(networkKey(inst.Set.Latency, inst.Types, inst.Counts), func() (*exact.Table, string, error) {
		c.buildSem <- struct{}{} // bound concurrent distinct-network builds
		start := time.Now()
		t, err := exact.BuildTableParallel(inst.Set, workers)
		buildTime = time.Since(start)
		<-c.buildSem
		if err != nil {
			return nil, "", err
		}
		expTableBuilds.Add(1)
		c.builds.Add(1)
		return t, TableCacheMiss, nil
	})
	return t, source, buildTime, err
}

// decodeTableRequest reads a /v1/table body (also the body of a fleet
// build-and-stream POST): the request, its analyzed canonical instance
// and the instance's network key. On failure it has written the 400 or
// 422 and ok is false.
func (s *Server) decodeTableRequest(w http.ResponseWriter, r *http.Request) (req TableRequest, inst *exact.Instance, key string, ok bool) {
	if !s.decodeRequest(w, r, &req) {
		return req, nil, "", false
	}
	set, err := decodeSet(req.Set)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return req, nil, "", false
	}
	inst, err = exact.Analyze(Canonicalize(set))
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return req, nil, "", false
	}
	return req, inst, networkKey(inst.Set.Latency, inst.Types, inst.Counts), true
}

// fillWorkers is the fill parallelism of a request that asked for
// parallelism workers, defaulted (0) to the server's.
func (s *Server) fillWorkers(parallelism int) int {
	if parallelism <= 0 {
		return s.tableWorkers
	}
	return parallelism
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	req, inst, key, ok := s.decodeTableRequest(w, r)
	if !ok {
		return
	}
	table, source, role, buildTime, err := s.resolveTable(r.Context(), inst, key, req.Parallelism)
	if err != nil {
		var rej *peerRejectedError
		if errors.As(err, &rej) {
			// The owner understood the request and refused (e.g. state
			// space over the build guard): relay the refusal.
			writeError(w, rej.Status, errors.New(rej.Msg))
			return
		}
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	defer table.Release()
	opt, err := table.Lookup(inst.SourceType, inst.Counts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, TableResponse{
		Key:         key,
		Cache:       source,
		K:           table.K(),
		States:      table.States(),
		Counts:      table.Counts(),
		OptimalRT:   opt,
		BuildMillis: buildTime.Milliseconds(),
		Mapped:      table.Mapped(),
		SizeBytes:   table.SizeBytes(),
		Fleet:       role,
	})
}
