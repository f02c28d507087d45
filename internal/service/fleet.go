package service

// Fleet mode: multi-node hnowd with consistent-hash table ownership.
//
// A static peer list (Config.Peers / hnowd -peers, with Config.Self the
// advertised address of this replica) forms a rendezvous-hash ring over
// the canonical network keys: every network has exactly one owner
// replica, which is the only replica that runs its DP fill. Only tables
// cross the fleet: every exact answer resolves its network's table
// through Server.resolveTable, and heuristic plans are computed where
// they are asked for.
//
//   - /v1/table, and the "optimal" answers of /v1/compare (when no cached
//     or spilled table covers the set), /v1/schedule and /v1/render, on a
//     non-owner first serve any locally cached or spilled copy, then
//     cache-fill: the replica asks the owner to build-and-stream the raw
//     .hnowtbl bytes (POST /v1/fleet/table/{key}), re-validates them
//     through the exact store's checksum, version and value-bound checks
//     (peers are untrusted by construction: a corrupt, truncated or
//     older-format body is rejected with exact.ErrBadTable and counted in
//     peer_errors, and the table is built locally),
//     and inserts the table into its own byte-budgeted LRU and spill dir
//     — single-flighted per key by tableCache.resolve, the one path the
//     local load and build go through too.
//   - The owner serves the key from its own cache, spill or fill.
//
// Every peer interaction is bounded: per-request timeouts, one retry for
// transport-level failures, and a per-peer circuit breaker. When the
// owner is unreachable the replica falls back to local computation
// (counted in fallback_builds) — the fleet degrades to independent
// daemons rather than failing requests. Membership is static per
// process: the ring is built once in newFleetState and never changes. A
// membership change is a restart with the new peer list; a former owner
// keeps serving the tables in its spill, and new owners backfill on first
// request.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exact"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/trace"
)

var (
	expFleetOwnerHits      = expvar.NewInt("hnowd.fleet.owner_hits")
	expFleetPeerFetches    = expvar.NewInt("hnowd.fleet.peer_fetches")
	expFleetFallbackBuilds = expvar.NewInt("hnowd.fleet.fallback_builds")
	expFleetPeerErrors     = expvar.NewInt("hnowd.fleet.peer_errors")
)

// Fleet role labels reported in TableResponse.Fleet.
const (
	// FleetRoleOwner: this replica owns the network key and served it
	// from its own cache/spill/build.
	FleetRoleOwner = "owner"
	// FleetRolePeer: a non-owner served the request by fetching and
	// ingesting the owner's table bytes.
	FleetRolePeer = "peer"
	// FleetRoleFallback: a non-owner computed locally because the owner
	// was unreachable or served invalid bytes.
	FleetRoleFallback = "fallback"
)

// FleetStats is a per-server snapshot of the fleet counters (the
// process-wide aggregates surface as hnowd.fleet.* expvars).
type FleetStats struct {
	// OwnerHits counts table resolves (a /v1/table warm or an exact
	// answer) this replica served for keys it owns.
	OwnerHits int64 `json:"owner_hits"`
	// PeerFetches counts tables successfully fetched from the owner and
	// ingested (full checksum and value-bound validation) into the local
	// cache.
	PeerFetches int64 `json:"peer_fetches"`
	// FallbackBuilds counts table resolves served by a local build
	// because the owner was unreachable or its table bytes failed
	// validation.
	FallbackBuilds int64 `json:"fallback_builds"`
	// PeerErrors counts failed peer interactions: transport errors after
	// retries, unexpected statuses, and corrupt/truncated table bytes.
	PeerErrors int64 `json:"peer_errors"`
}

// fleetState is the per-server fleet runtime: the membership ring, the
// per-peer breakers and the HTTP client used for peer traffic.
type fleetState struct {
	self         string
	buildTimeout time.Duration // build-and-stream requests (DP fills take minutes)
	retries      int
	brkThreshold int
	brkCooldown  time.Duration
	client       *http.Client
	ring         *fleet.Ring // immutable after newFleetState

	mu       sync.Mutex // guards breakers
	breakers map[string]*fleet.Breaker

	ownerHits, peerFetches, fallbackBuilds, peerErrors atomic.Int64
}

const (
	defaultFleetBuildTimeout = 15 * time.Minute
	defaultFleetRetries      = 1
)

func newFleetState(cfg Config) *fleetState {
	f := &fleetState{
		self:         fleet.Normalize(cfg.Self),
		buildTimeout: cfg.FleetBuildTimeout,
		retries:      cfg.FleetRetries,
		brkThreshold: cfg.FleetBreakerThreshold,
		brkCooldown:  cfg.FleetBreakerCooldown,
		breakers:     map[string]*fleet.Breaker{},
		client:       &http.Client{},
	}
	if f.buildTimeout <= 0 {
		f.buildTimeout = defaultFleetBuildTimeout
	}
	if f.retries < 0 {
		f.retries = defaultFleetRetries
	}
	f.ring = fleet.NewRing(append(append([]string{}, cfg.Peers...), cfg.Self))
	return f
}

// route returns the owner of key and whether this replica is it.
func (f *fleetState) route(key string) (owner string, self bool) {
	owner = f.ring.Owner(key)
	return owner, owner == f.self || owner == ""
}

func (f *fleetState) info() fleet.RingInfo { return f.ring.Info(f.self) }

func (f *fleetState) breakerFor(addr string) *fleet.Breaker {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.breakers[addr]
	if !ok {
		b = fleet.NewBreaker(f.brkThreshold, f.brkCooldown)
		f.breakers[addr] = b
	}
	return b
}

func (f *fleetState) ownerHit()      { f.ownerHits.Add(1); expFleetOwnerHits.Add(1) }
func (f *fleetState) peerFetch()     { f.peerFetches.Add(1); expFleetPeerFetches.Add(1) }
func (f *fleetState) fallbackBuild() { f.fallbackBuilds.Add(1); expFleetFallbackBuilds.Add(1) }
func (f *fleetState) peerError()     { f.peerErrors.Add(1); expFleetPeerErrors.Add(1) }

// recordBadPeer charges a peer for serving bytes that failed validation:
// the response arrived, but a peer producing garbage is as broken as one
// that is down.
func (f *fleetState) recordBadPeer(addr string) {
	f.peerError()
	f.breakerFor(addr).Failure()
}

// peerRejectedError carries a semantic (non-transport) refusal from the
// owner — e.g. the DP state space exceeds the build guard. The request
// would fail identically locally, so callers relay it instead of falling
// back.
type peerRejectedError struct {
	Status int
	Msg    string
}

func (e *peerRejectedError) Error() string {
	return fmt.Sprintf("peer rejected request (HTTP %d): %s", e.Status, e.Msg)
}

// errPeerUnavailable wraps transport-level peer failures (circuit open,
// dial/timeout/5xx after retries).
var errPeerUnavailable = errors.New("peer unavailable")

// doPeer runs attempt against addr under the peer's circuit breaker with
// bounded retry. Transport-level failures are retried once and, if
// persistent, open the breaker and count toward peer_errors; semantic
// refusals (peerRejectedError) pass through untouched.
func (f *fleetState) doPeer(addr string, attempt func() error) error {
	br := f.breakerFor(addr)
	if !br.Allow() {
		return fmt.Errorf("%w: circuit open for %s", errPeerUnavailable, addr)
	}
	var err error
	for i := 0; i <= f.retries; i++ {
		err = attempt()
		if err == nil {
			br.Success()
			return nil
		}
		var rej *peerRejectedError
		if errors.As(err, &rej) {
			br.Success() // the peer is healthy; it just said no
			return err
		}
	}
	br.Failure()
	f.peerError()
	return fmt.Errorf("%w: %s: %v", errPeerUnavailable, addr, err)
}

// fleetTablePath is the peer-exchange URL for a network key. Keys contain
// '|', ':' and '=' but never '/', so one escaped path segment carries them.
func fleetTablePath(owner, key string) string {
	return owner + "/v1/fleet/table/" + url.PathEscape(key)
}

// buildFetchBytes POSTs a build-and-stream request to the owner: the
// owner resolves the table through the same single-flight path as its
// own /v1/table (memory, spill, or a fresh fill) and streams the raw
// .hnowtbl bytes back. A 422 from the owner surfaces as
// *peerRejectedError.
func (f *fleetState) buildFetchBytes(ctx context.Context, owner, key string, body []byte) (data []byte, err error) {
	err = f.doPeer(owner, func() error {
		ctx, cancel := context.WithTimeout(ctx, f.buildTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, fleetTablePath(owner, key), bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := f.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusUnprocessableEntity {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			var apiErr apiError
			if json.Unmarshal(msg, &apiErr) == nil && apiErr.Error != "" {
				return &peerRejectedError{Status: resp.StatusCode, Msg: apiErr.Error}
			}
			return &peerRejectedError{Status: resp.StatusCode, Msg: string(msg)}
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("POST fleet table: HTTP %d", resp.StatusCode)
		}
		data, err = io.ReadAll(resp.Body)
		return err
	})
	return data, err
}

// fleetEnabled reports whether this server runs in fleet mode.
func (s *Server) fleetEnabled() bool { return s.fleet != nil }

// NetworkKey returns the canonical network key of a set: latency plus the
// sorted (send, recv) type inventory with per-type destination counts —
// the unit of both table caching and fleet ownership. Owner-aware clients
// hash this key through fleet.Ring to pick the replica to talk to.
func NetworkKey(set *model.MulticastSet) (string, error) {
	inst, err := exact.Analyze(Canonicalize(set))
	if err != nil {
		return "", err
	}
	return networkKey(inst.Set.Latency, inst.Types, inst.Counts), nil
}

// RingInfo returns the membership as advertised on
// GET /v1/fleet/ring. Zero value when fleet mode is off.
func (s *Server) RingInfo() fleet.RingInfo {
	if s.fleet == nil {
		return fleet.RingInfo{}
	}
	return s.fleet.info()
}

// FleetStats snapshots this server's fleet counters (zero when fleet mode
// is off).
func (s *Server) FleetStats() FleetStats {
	if s.fleet == nil {
		return FleetStats{}
	}
	return FleetStats{
		OwnerHits:      s.fleet.ownerHits.Load(),
		PeerFetches:    s.fleet.peerFetches.Load(),
		FallbackBuilds: s.fleet.fallbackBuilds.Load(),
		PeerErrors:     s.fleet.peerErrors.Load(),
	}
}

// TableBuilds reports how many DP table fills this server has run — the
// per-replica number behind the fleet's "one build per key" guarantee.
func (s *Server) TableBuilds() int64 { return s.tables.builds.Load() }

// handleFleetRing serves GET /v1/fleet/ring.
func (s *Server) handleFleetRing(w http.ResponseWriter, r *http.Request) {
	if !s.fleetEnabled() {
		writeError(w, http.StatusNotFound, errors.New("fleet mode disabled (start with -self/-peers)"))
		return
	}
	writeJSON(w, http.StatusOK, s.fleet.info())
}

// handleFleetTablePost serves POST /v1/fleet/table/{key}: resolve the
// table for the embedded set (a /v1/table body) through getOrBuild —
// memory, spill, or a single-flighted fresh fill — and stream its raw
// bytes. This is the one-round-trip cache-fill of Server.resolveTable.
func (s *Server) handleFleetTablePost(w http.ResponseWriter, r *http.Request) {
	if !s.fleetEnabled() {
		writeError(w, http.StatusNotFound, errors.New("fleet mode disabled"))
		return
	}
	req, inst, got, ok := s.decodeTableRequest(w, r)
	if !ok {
		return
	}
	if key := r.PathValue("key"); got != key {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("set resolves to key %q, path names %q", got, key))
		return
	}
	t, _, _, err := s.tables.getOrBuild(inst, s.fillWorkers(req.Parallelism))
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	defer t.Release()
	w.Header().Set("Content-Type", "application/octet-stream")
	t.WriteTo(w)
}

// validatePeerTable re-validates fetched peer bytes through the store's
// checksum, version and value-bound checks and pins the decoded table to the
// requested key. Peers are untrusted: any failure is charged to the peer
// and surfaces wrapped in exact.ErrBadTable.
func (s *Server) validatePeerTable(owner, key string, data []byte) (*exact.Table, error) {
	t, err := exact.ReadTableBytes(data)
	if err != nil {
		s.fleet.recordBadPeer(owner)
		return nil, fmt.Errorf("ingesting table from %s: %w", owner, err)
	}
	if got := networkKey(t.Latency(), t.Types(), t.Counts()); got != key {
		t.Close()
		s.fleet.recordBadPeer(owner)
		return nil, fmt.Errorf("%w: peer %s served table for key %q, want %q", exact.ErrBadTable, owner, got, key)
	}
	return t, nil
}

// resolveTable is the one path from a request to the exact-key table
// for inst; parallelism caps the fill workers (0 = the server default).
// Outside fleet mode it is getOrBuild. In fleet mode the ring comes
// first: the owner resolves locally (memory, spill or fill). A non-owner
// resolves through the table cache too, so a table it already holds in
// memory or its spill (e.g. the key's previous owner after a membership
// change) keeps serving until evicted; only a miss runs a
// single-flighted build-and-stream from the owner with full
// re-validation, and only if the owner is unreachable or served garbage
// a local fallback build. A refusal from the owner is returned as a
// *peerRejectedError: a local build would fail the same way. On success
// the table is borrowed (the caller must Release it); role is the
// request's fleet role, "" outside fleet mode and for non-owner local
// hits, and buildTime is 0 unless this call filled the table.
//
//hnow:borrows
func (s *Server) resolveTable(ctx context.Context, inst *exact.Instance, key string, parallelism int) (t *exact.Table, source, role string, buildTime time.Duration, err error) {
	if !s.fleetEnabled() {
		t, source, buildTime, err = s.tables.getOrBuild(inst, s.fillWorkers(parallelism))
		return t, source, "", buildTime, err
	}
	owner, self := s.fleet.route(key)
	if self {
		s.fleet.ownerHit()
		t, source, buildTime, err = s.tables.getOrBuild(inst, s.fillWorkers(parallelism))
		return t, source, FleetRoleOwner, buildTime, err
	}
	fetch := func() (*exact.Table, string, error) {
		set, err := trace.MarshalSetJSON(inst.Set)
		if err != nil {
			return nil, "", err
		}
		body, err := json.Marshal(TableRequest{Set: set, Parallelism: parallelism})
		if err != nil {
			return nil, "", err
		}
		data, err := s.fleet.buildFetchBytes(ctx, owner, key, body)
		if err != nil {
			return nil, "", err
		}
		t, err := s.validatePeerTable(owner, key, data)
		return t, TableCachePeer, err
	}
	t, source, err = s.tables.resolve(key, fetch)
	if err == nil {
		if source == TableCachePeer {
			s.fleet.peerFetch()
			role = FleetRolePeer
		}
		return t, source, role, 0, nil
	}
	var rej *peerRejectedError
	if errors.As(err, &rej) {
		return nil, "", "", 0, err
	}
	// Owner unreachable or its bytes invalid: degrade to a local build so
	// the fleet never fails a request that a single daemon could serve.
	s.fleet.fallbackBuild()
	t, source, buildTime, err = s.tables.getOrBuild(inst, s.fillWorkers(parallelism))
	return t, source, FleetRoleFallback, buildTime, err
}
