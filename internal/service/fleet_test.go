package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/exact"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/trace"
)

// testFleet is an in-process multi-replica cluster: every replica is a
// real Server behind a real httptest listener, with its own temp spill
// dir, all agreeing on the membership ring. Each listener serves
// whichever Server live holds, so restart can replace a replica's Server
// while its URL stays.
type testFleet struct {
	svcs []*Server
	cfgs []Config
	live []atomic.Pointer[Server]
	ts   []*httptest.Server
	urls []string
}

func startFleet(t *testing.T, n int, mut func(i int, cfg *Config)) *testFleet {
	t.Helper()
	ts := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range ts {
		ts[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + ts[i].Listener.Addr().String()
	}
	f := &testFleet{ts: ts, urls: urls, svcs: make([]*Server, n), cfgs: make([]Config, n), live: make([]atomic.Pointer[Server], n)}
	for i := range ts {
		cfg := Config{
			Self:                 urls[i],
			Peers:                urls,
			TableDir:             t.TempDir(),
			FleetBuildTimeout:    time.Minute,
			FleetBreakerCooldown: 50 * time.Millisecond,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		svc := New(cfg)
		f.svcs[i], f.cfgs[i] = svc, cfg
		f.live[i].Store(svc)
		live := &f.live[i]
		ts[i].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			live.Load().Handler().ServeHTTP(w, r)
		})
		ts[i].Start()
	}
	t.Cleanup(func() {
		for i := range f.ts {
			f.ts[i].Close()
			f.svcs[i].Close()
		}
	})
	return f
}

// restart replaces replica i's Server with a new one over the same table
// dir and the given peer list, as restarting hnowd with a new -peers list
// does. The replica keeps its URL.
func (f *testFleet) restart(i int, peers []string) {
	cfg := f.cfgs[i]
	cfg.Peers = peers
	svc := New(cfg)
	f.live[i].Store(svc)
	f.svcs[i].Close()
	f.svcs[i], f.cfgs[i] = svc, cfg
}

// ownerIndex returns which replica owns the set's network key.
func (f *testFleet) ownerIndex(t *testing.T, set *model.MulticastSet) int {
	t.Helper()
	key, err := NetworkKey(set)
	if err != nil {
		t.Fatal(err)
	}
	owner := fleet.NewRing(f.urls).Owner(key)
	for i, u := range f.urls {
		if fleet.Normalize(u) == owner {
			return i
		}
	}
	t.Fatalf("owner %q not among replicas %v", owner, f.urls)
	return -1
}

func (f *testFleet) totalBuilds() int64 {
	var n int64
	for _, s := range f.svcs {
		n += s.TableBuilds()
	}
	return n
}

func warmTable(t *testing.T, url string, set *model.MulticastSet) TableResponse {
	t.Helper()
	resp, body := post(t, url+"/v1/table", TableRequest{Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/table: HTTP %d: %s", resp.StatusCode, body)
	}
	var out TableResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// fleetSet generates a small valid instance whose exact optimum is cheap.
func fleetSet(t *testing.T, seed int64) *model.MulticastSet {
	t.Helper()
	set, err := cluster.Generate(cluster.GenConfig{N: 10, K: 2, Seed: seed, MaxSend: 8})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestFleetSingleBuildPerKey is the acceptance test: warming one network
// through all three replicas runs exactly one DP build fleet-wide; the
// two non-owners serve by peer fetch (validated ingest) and afterwards
// from their own caches, and their spill indexes learn the table
// immediately — not only on restart.
func TestFleetSingleBuildPerKey(t *testing.T) {
	f := startFleet(t, 3, nil)
	set := fleetSet(t, 42)
	owner := f.ownerIndex(t, set)

	// Warm through the owner first so ownership is exercised, then the
	// two non-owners.
	first := warmTable(t, f.urls[owner], set)
	if first.Cache != TableCacheMiss || first.Fleet != FleetRoleOwner {
		t.Errorf("owner warm: cache=%q fleet=%q, want miss/owner", first.Cache, first.Fleet)
	}
	for i := range f.urls {
		if i == owner {
			continue
		}
		if n := f.svcs[i].tables.index.size(); n != 0 {
			t.Fatalf("replica %d spill index has %d entries before any request", i, n)
		}
		got := warmTable(t, f.urls[i], set)
		if got.Cache != TableCachePeer || got.Fleet != FleetRolePeer {
			t.Errorf("non-owner %d warm: cache=%q fleet=%q, want peer/peer", i, got.Cache, got.Fleet)
		}
		if got.OptimalRT != first.OptimalRT {
			t.Errorf("non-owner %d optimal %d != owner %d", i, got.OptimalRT, first.OptimalRT)
		}
		// Satellite: peer-ingested tables enter the spill index (and its
		// expvar) immediately, the same path CLI drop-ins use.
		if n := f.svcs[i].tables.index.size(); n != 1 {
			t.Errorf("replica %d spill index has %d entries after peer ingest, want 1", i, n)
		}
	}

	if total := f.totalBuilds(); total != 1 {
		t.Errorf("fleet ran %d DP builds for one key, want exactly 1", total)
	}
	for i, s := range f.svcs {
		if i != owner && s.TableBuilds() != 0 {
			t.Errorf("non-owner %d ran %d builds (duplicate work)", i, s.TableBuilds())
		}
		if i != owner {
			if st := s.FleetStats(); st.PeerFetches != 1 || st.FallbackBuilds != 0 {
				t.Errorf("non-owner %d fleet stats = %+v, want exactly 1 peer fetch and no fallbacks", i, st)
			}
		}
	}
	ownerHits := f.svcs[owner].FleetStats().OwnerHits
	if ownerHits == 0 {
		t.Errorf("owner recorded no owner hits")
	}

	// Second round: every replica now serves from its own cache, and a
	// memory hit on the owner still reports (and counts) its role.
	for i := range f.urls {
		got := warmTable(t, f.urls[i], set)
		if got.Cache != TableCacheHit {
			t.Errorf("replica %d second warm: cache=%q, want hit", i, got.Cache)
		}
		if i == owner && got.Fleet != FleetRoleOwner {
			t.Errorf("owner second warm: fleet=%q, want owner", got.Fleet)
		}
	}
	if st := f.svcs[owner].FleetStats(); st.OwnerHits != ownerHits+1 {
		t.Errorf("owner hits %d after a second warm on the owner, want %d", st.OwnerHits, ownerHits+1)
	}
	if total := f.totalBuilds(); total != 1 {
		t.Errorf("second round added builds: %d total", total)
	}
}

// TestFleetConcurrentWarmSingleFlight hammers one cold key through every
// replica concurrently: the inflight single-flight plus owner-side build
// single-flight must keep the fleet at one DP build. Run under -race in
// CI, this is the fetch/ingest race coverage.
func TestFleetConcurrentWarmSingleFlight(t *testing.T) {
	f := startFleet(t, 3, nil)
	set := fleetSet(t, 7)
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, f.urls[i%3]+"/v1/table", TableRequest{Set: rawSet(t, set)})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("replica %d: HTTP %d: %s", i%3, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if total := f.totalBuilds(); total != 1 {
		t.Errorf("concurrent fleet warm ran %d builds, want 1", total)
	}
}

// corruptOwner is a stub replica that claims tables but serves garbage
// bytes, standing in for a compromised or broken peer.
func corruptOwner(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	mux := http.NewServeMux()
	garbage := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write([]byte("HNOWTBL\x00 definitely not a table"))
	}
	mux.HandleFunc("POST /v1/fleet/table/{key}", garbage)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, "http://" + ts.Listener.Addr().String()
}

// findOwnedSet searches generator seeds for an instance owned by wantURL
// in a ring over urls.
func findOwnedSet(t *testing.T, urls []string, wantURL string) *model.MulticastSet {
	t.Helper()
	ring := fleet.NewRing(urls)
	for seed := int64(0); seed < 200; seed++ {
		set := fleetSet(t, seed)
		key, err := NetworkKey(set)
		if err != nil {
			continue
		}
		if ring.Owner(key) == fleet.Normalize(wantURL) {
			return set
		}
	}
	t.Fatal("no generated set hashed to the wanted owner in 200 seeds")
	return nil
}

// TestFleetCorruptPeerTableRejected: peers are untrusted by construction.
// Bytes that fail the checksum/value validation are rejected with
// exact.ErrBadTable, counted in peer_errors, and the request degrades to
// a local fallback build that still answers correctly.
func TestFleetCorruptPeerTableRejected(t *testing.T) {
	stub, stubURL := corruptOwner(t)
	_ = stub

	real := httptest.NewUnstartedServer(nil)
	realURL := "http://" + real.Listener.Addr().String()
	svc := New(Config{
		Self:              realURL,
		Peers:             []string{realURL, stubURL},
		TableDir:          t.TempDir(),
		FleetBuildTimeout: time.Minute,
	})
	real.Config.Handler = svc.Handler()
	real.Start()
	t.Cleanup(func() { real.Close(); svc.Close() })

	set := findOwnedSet(t, []string{realURL, stubURL}, stubURL)
	got := warmTable(t, realURL, set)
	if got.Fleet != FleetRoleFallback {
		t.Errorf("fleet role %q, want fallback after corrupt peer bytes", got.Fleet)
	}
	st := svc.FleetStats()
	if st.PeerErrors == 0 {
		t.Errorf("corrupt peer bytes not counted: %+v", st)
	}
	if st.PeerFetches != 0 {
		t.Errorf("corrupt bytes must not count as a successful peer fetch: %+v", st)
	}
	if st.FallbackBuilds != 1 {
		t.Errorf("want 1 fallback build, got %+v", st)
	}
	if svc.TableBuilds() != 1 {
		t.Errorf("fallback should have built locally once, got %d", svc.TableBuilds())
	}
	// The fallback answer must match an independent exact solve.
	want, err := exact.OptimalRT(Canonicalize(set))
	if err != nil {
		t.Fatal(err)
	}
	if got.OptimalRT != want {
		t.Errorf("fallback optimal %d != exact %d", got.OptimalRT, want)
	}
	// And the validation error class is the typed one.
	if _, err := exact.ReadTableBytes([]byte("HNOWTBL\x00 definitely not a table")); !errors.Is(err, exact.ErrBadTable) {
		t.Errorf("corrupt bytes should fail with ErrBadTable, got %v", err)
	}
}

// TestFleetOwnerDownFallback: with the owner unreachable the non-owner
// serves by local build (bounded by timeout + circuit breaker) instead
// of failing the request.
func TestFleetOwnerDownFallback(t *testing.T) {
	f := startFleet(t, 2, nil)
	set := fleetSet(t, 11)
	owner := f.ownerIndex(t, set)
	other := 1 - owner

	f.ts[owner].Close() // owner goes dark
	got := warmTable(t, f.urls[other], set)
	if got.Fleet != FleetRoleFallback {
		t.Errorf("fleet role %q, want fallback with owner down", got.Fleet)
	}
	st := f.svcs[other].FleetStats()
	if st.FallbackBuilds != 1 || st.PeerErrors == 0 {
		t.Errorf("fleet stats after owner-down = %+v", st)
	}
	if f.svcs[other].TableBuilds() != 1 {
		t.Errorf("survivor should have built locally, builds=%d", f.svcs[other].TableBuilds())
	}

	// A second cold key goes straight to fallback once the breaker is
	// open — and the already-ingested key keeps serving from cache.
	set2 := fleetSet(t, 12)
	if f.ownerIndex(t, set2) == owner {
		got2 := warmTable(t, f.urls[other], set2)
		if got2.Fleet != FleetRoleFallback {
			t.Errorf("second cold key: fleet role %q, want fallback", got2.Fleet)
		}
	}
	if again := warmTable(t, f.urls[other], set); again.Cache != TableCacheHit {
		t.Errorf("warm key should still serve locally, cache=%q", again.Cache)
	}
}

// TestFleetMembershipHandoff: a membership change is a restart of every
// replica with the new peer list over the same table dirs. Once the old
// owner is dropped from the list, the key's new owner backfills with its
// own build on first request, and the old owner serves its spilled copy
// without rebuilding.
func TestFleetMembershipHandoff(t *testing.T) {
	f := startFleet(t, 3, nil)
	set := fleetSet(t, 21)
	oldOwner := f.ownerIndex(t, set)
	key, err := NetworkKey(set)
	if err != nil {
		t.Fatal(err)
	}

	warmTable(t, f.urls[oldOwner], set) // old owner builds and spills
	if f.totalBuilds() != 1 {
		t.Fatalf("setup: want 1 build, got %d", f.totalBuilds())
	}

	// Restart every replica with the survivors' list. The old owner is
	// being drained: it is restarted with the same list, owns nothing on
	// the survivors' rings, and keeps serving what it has spilled.
	var survivors []string
	for i, u := range f.urls {
		if i != oldOwner {
			survivors = append(survivors, u)
		}
	}
	for i := range f.svcs {
		f.restart(i, survivors)
	}

	newOwner := -1
	newOwnerURL := fleet.NewRing(survivors).Owner(key)
	for i, u := range f.urls {
		if fleet.Normalize(u) == newOwnerURL {
			newOwner = i
		}
	}
	if newOwner == -1 || newOwner == oldOwner {
		t.Fatalf("handoff resolved to replica %d", newOwner)
	}

	// The ring endpoint shows the new membership.
	resp, body := get(t, f.urls[newOwner]+"/v1/fleet/ring")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET ring: HTTP %d", resp.StatusCode)
	}
	var info fleet.RingInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Members) != 2 {
		t.Fatalf("ring has %d members after the restart, want 2", len(info.Members))
	}

	// A request on the third replica routes to the NEW owner, which
	// backfills (second fleet-wide build — the old owner's copy is not
	// reachable through the survivors' ring).
	third := 3 - oldOwner - newOwner
	got := warmTable(t, f.urls[third], set)
	if got.Cache != TableCachePeer {
		t.Errorf("post-handoff warm through third replica: cache=%q, want peer", got.Cache)
	}
	if f.svcs[newOwner].TableBuilds() != 1 {
		t.Errorf("new owner should have backfilled with 1 build, got %d", f.svcs[newOwner].TableBuilds())
	}

	// The old owner serves its spilled copy: spilled tables outlive
	// ownership and restarts.
	old := warmTable(t, f.urls[oldOwner], set)
	if old.Cache != TableCacheDisk {
		t.Errorf("old owner post-handoff: cache=%q, want disk from its spill", old.Cache)
	}
	if f.svcs[oldOwner].TableBuilds() != 0 {
		t.Errorf("old owner must not rebuild after handoff, builds=%d", f.svcs[oldOwner].TableBuilds())
	}
}

// TestFleetCompareConsultsRing: a non-owner with no covering table
// answers /v1/compare's optimum from the owner's table, fetched through
// the same build-and-stream path as /v1/table, and never runs its own
// fill while the owner is reachable.
func TestFleetCompareConsultsRing(t *testing.T) {
	f := startFleet(t, 2, nil)
	set := fleetSet(t, 33)
	owner := f.ownerIndex(t, set)
	other := 1 - owner
	want, err := exact.OptimalRT(Canonicalize(set))
	if err != nil {
		t.Fatal(err)
	}

	// Cold compare on the non-owner: the owner builds the table once and
	// streams it; the non-owner ingests it and looks the optimum up.
	resp, body := post(t, f.urls[other]+"/v1/compare", CompareRequest{Set: rawSet(t, set), Optimal: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare: HTTP %d: %s", resp.StatusCode, body)
	}
	var cr CompareResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Optimal == nil || *cr.Optimal != want {
		t.Fatalf("non-owner compare optimal = %v, want %d", cr.Optimal, want)
	}
	if n := f.svcs[owner].TableBuilds(); n != 1 {
		t.Errorf("owner ran %d table builds, want 1", n)
	}
	if n := f.svcs[other].TableBuilds(); n != 0 {
		t.Errorf("non-owner ran %d table builds, want 0", n)
	}
	if st := f.svcs[other].FleetStats(); st.PeerFetches != 1 {
		t.Errorf("non-owner stats = %+v, want 1 peer fetch", st)
	}

	// The ingested table now serves the non-owner's repeats locally.
	resp, body = post(t, f.urls[other]+"/v1/compare", CompareRequest{Set: rawSet(t, set), Optimal: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare: HTTP %d: %s", resp.StatusCode, body)
	}
	var cr2 CompareResponse
	if err := json.Unmarshal(body, &cr2); err != nil {
		t.Fatal(err)
	}
	if cr2.Optimal == nil || *cr2.Optimal != want {
		t.Fatalf("repeat compare optimal = %v, want %d", cr2.Optimal, want)
	}
	if st := f.svcs[other].FleetStats(); st.PeerFetches != 1 {
		t.Errorf("repeat compare left stats %+v, want still 1 peer fetch", st)
	}
	if n := f.totalBuilds(); n != 1 {
		t.Errorf("fleet ran %d builds, want 1", n)
	}
}

// TestFleetScheduleServedLocally: a heuristic plan is computed where it
// is asked for. A schedule on a network another replica owns is a local
// miss, then a local hit, and neither replica sees any peer traffic.
func TestFleetScheduleServedLocally(t *testing.T) {
	f := startFleet(t, 2, nil)
	set := fleetSet(t, 55)
	other := 1 - f.ownerIndex(t, set)

	for _, want := range []string{"miss", "hit"} {
		resp, body := post(t, f.urls[other]+"/v1/schedule", ScheduleRequest{Set: rawSet(t, set)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("schedule: HTTP %d: %s", resp.StatusCode, body)
		}
		var sr ScheduleResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Cache != want {
			t.Errorf("schedule on non-owner: cache=%q, want %s", sr.Cache, want)
		}
	}
	for i, s := range f.svcs {
		if st := s.FleetStats(); st != (FleetStats{}) {
			t.Errorf("replica %d fleet stats %+v, want no peer traffic", i, st)
		}
	}
	if n := f.totalBuilds(); n != 0 {
		t.Errorf("heuristic schedules ran %d table builds, want 0", n)
	}
}

// TestFleetOptimalConsultsRing: an "optimal" schedule or render on a
// non-owner resolves its table through the ring like /v1/table does: it
// ingests the owner's table instead of filling its own, and falls back
// to one local build only when the owner is down.
func TestFleetOptimalConsultsRing(t *testing.T) {
	f := startFleet(t, 2, nil)
	set := fleetSet(t, 61)
	owner := f.ownerIndex(t, set)
	other := 1 - owner

	// Owner already warm: the render ingests its table.
	warmTable(t, f.urls[owner], set)
	resp, body := post(t, f.urls[other]+"/v1/render", RenderRequest{Algo: "optimal", Format: "json", Set: rawSet(t, set)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render: HTTP %d: %s", resp.StatusCode, body)
	}
	if n := f.svcs[other].TableBuilds(); n != 0 {
		t.Errorf("render on non-owner ran %d builds, want 0", n)
	}
	if st := f.svcs[other].FleetStats(); st.PeerFetches != 1 {
		t.Errorf("render on non-owner: stats %+v, want 1 peer fetch", st)
	}

	// Cold network: the owner builds it for the non-owner's schedule,
	// and the tree is the canonical optimum.
	var set2 *model.MulticastSet
	for seed := int64(62); set2 == nil; seed++ {
		if s := fleetSet(t, seed); f.ownerIndex(t, s) == owner {
			set2 = s
		}
	}
	ownerBuilds := f.svcs[owner].TableBuilds()
	got := scheduleOptimal(t, f.urls[other], "optimal", set2)
	if n := f.svcs[owner].TableBuilds() - ownerBuilds; n != 1 {
		t.Errorf("owner ran %d builds for the cold schedule, want 1", n)
	}
	if n := f.svcs[other].TableBuilds(); n != 0 {
		t.Errorf("schedule on non-owner ran %d builds, want 0", n)
	}
	sch, err := exact.Schedule(Canonicalize(set2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.MarshalTimes(sch, &model.Times{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Schedule, compactJSON(t, want)) {
		t.Errorf("schedule differs from exact.Schedule:\n got %s\nwant %s", got.Schedule, want)
	}

	// Owner down: the non-owner still answers, from one fallback build.
	var set3 *model.MulticastSet
	for seed := int64(100); set3 == nil; seed++ {
		if s := fleetSet(t, seed); f.ownerIndex(t, s) == owner {
			set3 = s
		}
	}
	f.ts[owner].Close()
	scheduleOptimal(t, f.urls[other], "optimal", set3)
	if st := f.svcs[other].FleetStats(); st.FallbackBuilds != 1 {
		t.Errorf("owner down: stats %+v, want 1 fallback build", st)
	}
	if n := f.svcs[other].TableBuilds(); n != 1 {
		t.Errorf("owner down: non-owner ran %d builds, want 1", n)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf []byte
	buf, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, buf
}
