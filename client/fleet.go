package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/service"
)

// FleetRing fetches the replica's membership view (GET /v1/fleet/ring).
// Single-node servers do not serve the endpoint; the 404 comes back as
// an *APIError.
func (c *Client) FleetRing(ctx context.Context) (*fleet.RingInfo, error) {
	var out fleet.RingInfo
	if err := c.do(ctx, http.MethodGet, "/v1/fleet/ring", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Fleet is an owner-aware client for a multi-node hnowd deployment. It
// hashes each request's canonical network key with the same rendezvous
// ring the replicas use and talks to the key's owner directly — the
// request lands where the table lives, with no peer fetch.
// On transport failure it falls back through the remaining replicas in
// rendezvous order (any of them can serve by peer fetch or local build);
// semantic rejections (*APIError) are returned immediately, since every
// replica would reject the same way.
type Fleet struct {
	// HTTPClient is used for all per-replica clients created after it is
	// set. Defaults to http.DefaultClient.
	HTTPClient *http.Client

	mu      sync.RWMutex
	ring    *fleet.Ring
	clients map[string]*Client
}

// NewFleet returns a fleet client over the given replica base URLs. The
// list is the full membership as the caller knows it; Refresh can learn
// the rest from any live replica.
func NewFleet(urls ...string) *Fleet {
	f := &Fleet{clients: make(map[string]*Client)}
	f.setMembers(urls)
	return f
}

func (f *Fleet) setMembers(urls []string) {
	ring := fleet.NewRing(urls)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ring = ring
	for _, m := range ring.Members() {
		if _, ok := f.clients[m]; !ok {
			f.clients[m] = &Client{BaseURL: m, HTTPClient: f.HTTPClient}
		}
	}
	for m := range f.clients {
		if !ring.Contains(m) {
			delete(f.clients, m)
		}
	}
}

// Members returns the replicas the fleet currently routes over.
func (f *Fleet) Members() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ms := f.ring.Members()
	out := make([]string, len(ms))
	copy(out, ms)
	return out
}

// Refresh asks replicas for their membership view (in ring order, first
// answer wins) and adopts it, adding clients for newly discovered
// replicas and dropping departed ones.
func (f *Fleet) Refresh(ctx context.Context) error {
	var lastErr error
	for _, c := range f.ranked("") {
		info, err := c.FleetRing(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		f.setMembers(info.Members)
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("client: fleet has no members")
	}
	return fmt.Errorf("client: fleet refresh: %w", lastErr)
}

// ranked returns per-replica clients in rendezvous order for key — the
// key's owner first, then the deterministic fallback order. An empty key
// ranks by membership order (used by Refresh, where any replica will do).
func (f *Fleet) ranked(key string) []*Client {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var order []string
	if key == "" {
		order = f.ring.Members()
	} else {
		order = f.ring.Rank(key)
	}
	out := make([]*Client, 0, len(order))
	for _, m := range order {
		if c := f.clients[m]; c != nil {
			out = append(out, c)
		}
	}
	return out
}

// route resolves the set's canonical network key and returns the clients
// to try, owner first.
func (f *Fleet) route(set *model.MulticastSet) ([]*Client, error) {
	key, err := service.NetworkKey(set)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	cs := f.ranked(key)
	if len(cs) == 0 {
		return nil, errors.New("client: fleet has no members")
	}
	return cs, nil
}

// tryEach calls call against each replica in order until one answers.
// Transport failures move on to the next replica; an *APIError stops the
// walk — the server understood the request and said no.
func tryEach[T any](cs []*Client, call func(*Client) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for _, c := range cs {
		out, err := call(c)
		if err == nil {
			return out, nil
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			return zero, err
		}
		lastErr = err
	}
	return zero, lastErr
}

// WarmTable warms the set's DP table on its owning replica (falling back
// through the ring on transport failure).
func (f *Fleet) WarmTable(ctx context.Context, set *model.MulticastSet, parallelism int) (*service.TableResponse, error) {
	cs, err := f.route(set)
	if err != nil {
		return nil, err
	}
	return tryEach(cs, func(c *Client) (*service.TableResponse, error) {
		return c.WarmTable(ctx, set, parallelism)
	})
}

// WarmAll warms every set's table concurrently, each request routed to
// the set's owning replica, so a bulk pre-warm spreads its fills across
// the replicas by ownership. Results are positional; warms that fail
// leave a nil slot and their errors are joined.
func (f *Fleet) WarmAll(ctx context.Context, sets []*model.MulticastSet, parallelism int) ([]*service.TableResponse, error) {
	out := make([]*service.TableResponse, len(sets))
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i, set := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = f.WarmTable(ctx, set, parallelism)
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// Schedule computes one schedule, routed to the owner of the set's
// network so plan-cache and table locality line up.
func (f *Fleet) Schedule(ctx context.Context, set *model.MulticastSet, algo string, seed int64) (*service.ScheduleResponse, error) {
	cs, err := f.route(set)
	if err != nil {
		return nil, err
	}
	return tryEach(cs, func(c *Client) (*service.ScheduleResponse, error) {
		return c.Schedule(ctx, set, algo, seed)
	})
}

// Compare runs every scheduler on the instance, routed to the owner of
// the set's network (whose DP table answers the optimal column).
func (f *Fleet) Compare(ctx context.Context, set *model.MulticastSet, seed int64, optimal bool) (*service.CompareResponse, error) {
	cs, err := f.route(set)
	if err != nil {
		return nil, err
	}
	return tryEach(cs, func(c *Client) (*service.CompareResponse, error) {
		return c.Compare(ctx, set, seed, optimal)
	})
}
