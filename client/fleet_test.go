package client_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/service"
)

// startFleetServers brings up n real replicas agreeing on one ring.
func startFleetServers(t *testing.T, n int) ([]*service.Server, []*httptest.Server, []string) {
	t.Helper()
	ts := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range ts {
		ts[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + ts[i].Listener.Addr().String()
	}
	svcs := make([]*service.Server, n)
	for i := range ts {
		svcs[i] = service.New(service.Config{
			Self:     urls[i],
			Peers:    urls,
			TableDir: t.TempDir(),
		})
		ts[i].Config.Handler = svcs[i].Handler()
		ts[i].Start()
	}
	t.Cleanup(func() {
		for i := range ts {
			ts[i].Close()
			svcs[i].Close()
		}
	})
	return svcs, ts, urls
}

func fleetOwnerIndex(t *testing.T, urls []string, set *model.MulticastSet) int {
	t.Helper()
	key, err := service.NetworkKey(set)
	if err != nil {
		t.Fatal(err)
	}
	owner := fleet.NewRing(urls).Owner(key)
	for i, u := range urls {
		if fleet.Normalize(u) == owner {
			return i
		}
	}
	t.Fatalf("owner %q not in %v", owner, urls)
	return -1
}

// TestFleetClientRoutesToOwner: the owner-aware client should land the
// request on the owning replica directly — the owner builds once, and no
// peer fetch happens anywhere.
func TestFleetClientRoutesToOwner(t *testing.T) {
	svcs, _, urls := startFleetServers(t, 2)
	set, err := cluster.Generate(cluster.GenConfig{N: 10, K: 2, Seed: 42, MaxSend: 8})
	if err != nil {
		t.Fatal(err)
	}
	owner := fleetOwnerIndex(t, urls, set)

	fc := client.NewFleet(urls...)
	ctx := context.Background()
	resp, err := fc.WarmTable(ctx, set, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fleet != service.FleetRoleOwner {
		t.Errorf("fleet role %q, want owner (client should route to the owner)", resp.Fleet)
	}
	if n := svcs[owner].TableBuilds(); n != 1 {
		t.Errorf("owner builds = %d, want 1", n)
	}
	if n := svcs[1-owner].TableBuilds(); n != 0 {
		t.Errorf("non-owner built %d tables; client routing should have spared it", n)
	}
	for i, s := range svcs {
		st := s.FleetStats()
		if st.PeerFetches != 0 {
			t.Errorf("replica %d stats %+v: owner-aware routing should need no peer fetches", i, st)
		}
	}

	// Compare and Schedule follow the same route and find everything warm.
	cr, err := fc.Compare(ctx, set, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Optimal == nil {
		t.Error("compare on warmed owner returned no optimal")
	}
	if _, err := fc.Schedule(ctx, set, "", 1); err != nil {
		t.Fatal(err)
	}
	for i, s := range svcs {
		if st := s.FleetStats(); st.PeerFetches != 0 {
			t.Errorf("replica %d fetched %d tables from a peer", i, st.PeerFetches)
		}
	}
}

// TestFleetClientWarmAll: a bulk pre-warm lands every set on its owner
// concurrently, building each table exactly once fleet-wide.
func TestFleetClientWarmAll(t *testing.T) {
	svcs, _, urls := startFleetServers(t, 3)
	var sets []*model.MulticastSet
	seen := map[string]bool{} // dedupe by network key so builds == len(sets)
	for seed := int64(0); len(sets) < 6 && seed < 40; seed++ {
		set, err := cluster.Generate(cluster.GenConfig{N: 8 + int(seed%5), K: 2, Seed: seed, MaxSend: 8})
		if err != nil {
			continue
		}
		key, err := service.NetworkKey(set)
		if err != nil || seen[key] {
			continue
		}
		seen[key] = true
		sets = append(sets, set)
	}
	fc := client.NewFleet(urls...)
	resps, err := fc.WarmAll(context.Background(), sets, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r == nil || r.OptimalRT <= 0 {
			t.Errorf("set %d: warm response %+v", i, r)
		} else if r.Fleet != service.FleetRoleOwner {
			t.Errorf("set %d landed on a %q replica, want owner", i, r.Fleet)
		}
	}
	var builds int64
	for _, s := range svcs {
		builds += s.TableBuilds()
	}
	if want := int64(len(sets)); builds != want {
		t.Errorf("fleet-wide builds = %d, want %d (one per distinct network)", builds, want)
	}
}

// TestFleetClientRefreshAndFailover: Refresh learns the full membership
// from a partial seed list, and a dead owner is skipped in favor of the
// next-ranked replica (which serves by fallback build).
func TestFleetClientRefreshAndFailover(t *testing.T) {
	_, ts, urls := startFleetServers(t, 3)

	fc := client.NewFleet(urls[0]) // seed with one replica only
	if got := len(fc.Members()); got != 1 {
		t.Fatalf("seed membership = %d, want 1", got)
	}
	if err := fc.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(fc.Members()); got != 3 {
		t.Fatalf("membership after refresh = %d, want 3", got)
	}

	set, err := cluster.Generate(cluster.GenConfig{N: 10, K: 2, Seed: 7, MaxSend: 8})
	if err != nil {
		t.Fatal(err)
	}
	owner := fleetOwnerIndex(t, urls, set)

	// Kill the owner; the client must fail over to the next-ranked
	// replica silently (which serves by local fallback build).
	ts[owner].Close()
	resp, err := fc.WarmTable(context.Background(), set, 0)
	if err != nil {
		t.Fatalf("failover warm: %v", err)
	}
	if resp.OptimalRT <= 0 {
		t.Errorf("failover warm returned optimal %d", resp.OptimalRT)
	}
}
