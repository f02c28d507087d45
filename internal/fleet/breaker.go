package fleet

import (
	"sync"
	"time"
)

// Breaker is a per-peer circuit breaker: after Threshold consecutive
// failures the circuit opens and Allow refuses requests for Cooldown,
// after which a single probe per cooldown window is let through
// (half-open); a success closes the circuit again. It keeps a replica
// from stalling every request on a dead peer's dial timeout — callers
// fall back (local build, next replica) immediately while the circuit is
// open.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	failures  int
	openUntil time.Time
	now       func() time.Time // time.Now; tests replace it
}

// Defaults used when NewBreaker is given non-positive parameters.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 5 * time.Second
)

// NewBreaker builds a breaker opening after threshold consecutive
// failures for cooldown per window (defaults applied for non-positive
// values).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request to the peer may proceed. While the
// circuit is open it returns false; once the cooldown elapses it lets
// exactly one probe through per window (re-arming the window, so
// concurrent callers don't all pile onto a possibly-dead peer).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures < b.threshold {
		return true
	}
	now := b.now()
	if now.Before(b.openUntil) {
		return false
	}
	b.openUntil = now.Add(b.cooldown) // half-open: this caller is the probe
	return true
}

// Success records a successful request, closing the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.failures = 0
	b.mu.Unlock()
}

// Failure records a failed request, opening the circuit when the
// consecutive-failure threshold is reached.
func (b *Breaker) Failure() {
	b.mu.Lock()
	b.failures++
	if b.failures >= b.threshold {
		b.openUntil = b.now().Add(b.cooldown)
	}
	b.mu.Unlock()
}
