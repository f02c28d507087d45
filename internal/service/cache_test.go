package service

import (
	"fmt"
	"sync"
	"testing"
)

func plan(rt int64) *Plan { return &Plan{RT: rt} }

// entries counts the plans cached across every shard.
func entries(c *Cache) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(8, 2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put("a", plan(7))
	p, ok := c.Get("a")
	if !ok || p.RT != 7 {
		t.Fatalf("Get(a) = %+v, %v", p, ok)
	}
	if n := entries(c); n != 1 {
		t.Errorf("%d entries, want 1", n)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, 1) // single shard so recency order is global
	c.Put("a", plan(1))
	c.Put("b", plan(2))
	c.Get("a") // a is now most recent
	c.Put("c", plan(3))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	if n := entries(c); n != 2 {
		t.Errorf("%d entries after one eviction, want 2", n)
	}
}

func TestCachePutReplace(t *testing.T) {
	c := NewCache(4, 1)
	c.Put("k", plan(1))
	c.Put("k", plan(2))
	p, ok := c.Get("k")
	if !ok || p.RT != 2 {
		t.Fatalf("replace failed: %+v, %v", p, ok)
	}
	if n := entries(c); n != 1 {
		t.Errorf("%d entries, want 1", n)
	}
}

func TestCacheShardRounding(t *testing.T) {
	c := NewCache(10, 3) // shards rounds up to 4
	if len(c.shards) != 4 {
		t.Errorf("got %d shards, want 4", len(c.shards))
	}
	c = NewCache(0, 0) // degenerate inputs must still work
	c.Put("x", plan(1))
	if _, ok := c.Get("x"); !ok {
		t.Error("minimal cache dropped its only entry")
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; run with
// -race it doubles as the data-race check required for the sharded design.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("key-%d", (g*31+i)%100)
				if p, ok := c.Get(key); ok && p.RT != int64(len(key)) {
					t.Errorf("corrupted entry under %q: %+v", key, p)
					return
				}
				c.Put(key, plan(int64(len(key))))
			}
		}(g)
	}
	wg.Wait()
	if n := entries(c); n == 0 || n > 64 {
		t.Errorf("%d entries, want 1..64", n)
	}
}
