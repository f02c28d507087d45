package fleet

import (
	"fmt"
	"testing"
	"time"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("L=10|3:5x%d|7:9x%d", i, n-i)
	}
	return out
}

func TestRingOwnerDeterministicAndOrderInvariant(t *testing.T) {
	a := NewRing([]string{"http://a", "http://b", "http://c"})
	b := NewRing([]string{"http://c/", " http://a", "http://b", "http://b"})
	if a.Hash() != b.Hash() {
		t.Fatalf("permuted/duplicated membership hashes differ: %s vs %s", a.Hash(), b.Hash())
	}
	for _, k := range keys(64) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner differs across equivalent rings for %q", k)
		}
	}
}

func TestRingRankCoversAllMembersOwnerFirst(t *testing.T) {
	r := NewRing([]string{"http://a", "http://b", "http://c", "http://d"})
	for _, k := range keys(32) {
		rank := r.Rank(k)
		if len(rank) != 4 {
			t.Fatalf("rank has %d members, want 4", len(rank))
		}
		if rank[0] != r.Owner(k) {
			t.Fatalf("rank[0]=%s, owner=%s", rank[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, m := range rank {
			if seen[m] {
				t.Fatalf("member %s ranked twice", m)
			}
			seen[m] = true
		}
	}
}

// Removing one member must only move the keys it owned: the defining
// property of consistent hashing, and what makes membership change a
// bounded backfill instead of a fleet-wide cache flush.
func TestRingRemovalMovesOnlyOrphanedKeys(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c", "http://d"}
	full := NewRing(members)
	shrunk := NewRing(members[:3]) // drop d
	ks := keys(512)
	moved, owned := 0, 0
	for _, k := range ks {
		before := full.Owner(k)
		after := shrunk.Owner(k)
		if before == "http://d" {
			owned++
			continue // these must move somewhere
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed member changed owner", moved)
	}
	if owned == 0 {
		t.Fatal("removed member owned no keys out of 512 — suspicious balance")
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"http://a", "http://b", "http://c"})
	counts := map[string]int{}
	for _, k := range keys(3000) {
		counts[r.Owner(k)]++
	}
	for m, c := range counts {
		if c < 600 || c > 1400 {
			t.Errorf("member %s owns %d of 3000 keys — badly unbalanced", m, c)
		}
	}
}

func TestRingEmptyAndContains(t *testing.T) {
	r := NewRing(nil)
	if r.Owner("k") != "" || r.Size() != 0 {
		t.Fatal("empty ring should own nothing")
	}
	r = NewRing([]string{"http://a/"})
	if !r.Contains("http://a") || !r.Contains(" http://a/") {
		t.Fatal("Contains should normalize like NewRing")
	}
	if r.Contains("http://b") {
		t.Fatal("Contains reported a non-member")
	}
}

// Open reports whether the circuit is currently refusing requests.
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures >= b.threshold && b.now().Before(b.openUntil)
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(3, time.Second)
	b.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("breaker refused before threshold (failure %d)", i)
		}
		b.Failure()
	}
	if b.Allow() {
		t.Fatal("breaker should be open after threshold failures")
	}
	if !b.Open() {
		t.Fatal("Open() should report an open circuit")
	}

	now = now.Add(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker should half-open after cooldown")
	}
	if b.Allow() {
		t.Fatal("only one probe per cooldown window should pass")
	}
	b.Success()
	if !b.Allow() || b.Open() {
		t.Fatal("success should close the circuit")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(2, time.Second)
	b.now = func() time.Time { return now }
	b.Failure()
	b.Failure()
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe should be allowed")
	}
	b.Failure() // probe failed
	if b.Allow() {
		t.Fatal("failed probe should keep the circuit open")
	}
}
