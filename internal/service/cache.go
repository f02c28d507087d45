package service

import (
	"container/list"
	"encoding/json"
	"expvar"
	"hash/fnv"
	"sync"

	"repro/internal/bounds"
)

// Process-wide expvar counters aggregated across every Cache in the
// process; they surface at GET /debug/vars.
var (
	expHits      = expvar.NewInt("hnowd.cache.hits")
	expMisses    = expvar.NewInt("hnowd.cache.misses")
	expEvictions = expvar.NewInt("hnowd.cache.evictions")
)

// Plan is a cached scheduling result: the serialized schedule plus the
// metadata the service reports alongside it. Entries are immutable once
// inserted — callers must not modify ScheduleJSON — which is what makes
// repeat responses byte-identical.
type Plan struct {
	// Algo is the registry name that produced the plan.
	Algo string
	// ScheduleJSON is the trace-codec encoding of the schedule on the
	// canonical instance.
	ScheduleJSON json.RawMessage
	// RT and DT are the reception and delivery completion times.
	RT, DT int64
	// LowerBound is the strongest provable lower bound on the optimal RT
	// for the instance.
	LowerBound int64
	// Bound carries the Theorem 1 constants of the instance.
	Bound bounds.Params
}

// Cache is a sharded LRU plan cache keyed on canonical keys. Each shard
// has its own mutex, map and recency list, so concurrent requests for
// different keys rarely contend. The zero value is not usable; call
// NewCache.
type Cache struct {
	shards []cacheShard
	mask   uint32
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	lru *list.List // front = most recently used
}

type cacheItem struct {
	key  string
	plan *Plan
}

// NewCache builds a cache holding at most capacity plans spread over
// shards shards. shards is rounded up to a power of two (minimum 1);
// capacity is rounded up so every shard holds at least one entry.
func NewCache(capacity, shards int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	c := &Cache{shards: make([]cacheShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i] = cacheShard{cap: perShard, m: make(map[string]*list.Element), lru: list.New()}
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()&c.mask]
}

// Get returns the plan cached under key, marking it most recently used.
func (c *Cache) Get(key string) (*Plan, bool) {
	s := c.shard(key)
	s.mu.Lock()
	var p *Plan
	if el, ok := s.m[key]; ok {
		s.lru.MoveToFront(el)
		p = el.Value.(*cacheItem).plan // read under the lock: Put may replace it
	}
	s.mu.Unlock()
	if p == nil {
		expMisses.Add(1)
		return nil, false
	}
	expHits.Add(1)
	return p, true
}

// Put inserts a plan under key, evicting the shard's least recently used
// entry if the shard is full. Re-inserting an existing key replaces the
// plan and refreshes its recency.
func (c *Cache) Put(key string, p *Plan) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		el.Value.(*cacheItem).plan = p
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	if s.lru.Len() >= s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.m, oldest.Value.(*cacheItem).key)
		expEvictions.Add(1)
	}
	s.m[key] = s.lru.PushFront(&cacheItem{key: key, plan: p})
	s.mu.Unlock()
}
