// Command hnowd serves multicast scheduling over HTTP: a canonicalized
// plan cache in front of every algorithm in the registry, comparison and
// rendering endpoints, and asynchronous parameter-sweep jobs.
//
// Usage:
//
//	hnowd -addr :8080 -cache 4096 -workers 8 -table-dir /var/lib/hnowd/tables
//
// Fleet mode shards table ownership across replicas by consistent hash
// (peer tables are fetched, checksum-revalidated and cached locally):
//
//	hnowd -addr :8080 -self http://host1:8080 \
//	      -peers http://host1:8080,http://host2:8080,http://host3:8080 \
//	      -table-dir /var/lib/hnowd/tables
//
// Endpoints:
//
//	POST /v1/schedule     compute (or reuse) one plan
//	POST /v1/compare      every scheduler on one instance
//	POST /v1/render       tree/gantt/dot/svg/json rendering
//	POST /v1/table        warm the network's optimal DP table
//	POST /v1/sweeps       start an async parameter sweep
//	GET  /v1/sweeps/{id}  poll a sweep job
//	GET  /v1/fleet/ring   fleet membership + digest
//	POST /v1/fleet/table/{key}  build-and-stream for peers (owner path)
//	GET  /healthz         liveness + algorithm list
//	GET  /debug/vars      expvar counters (cache, table, fleet, batch pool)
//	GET  /debug/pprof/*   profiling endpoints (only with -pprof)
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", 4096, "plan cache capacity in entries")
	cacheShards := flag.Int("cache-shards", 16, "plan cache shard count (rounded up to a power of two)")
	workers := flag.Int("workers", 0, "default sweep worker-pool size (0 = GOMAXPROCS)")
	maxJobs := flag.Int("max-jobs", 64, "maximum retained sweep jobs")
	tableMem := flag.Int64("table-mem", 1024, "byte budget for warm DP tables, in MiB (mapped tables count their file size)")
	tableWorkers := flag.Int("table-workers", 0, "default /v1/table fill parallelism (0 = GOMAXPROCS)")
	tableDir := flag.String("table-dir", "", "persist built DP tables to this directory (sharded layout; top-level files are ignored) and reload them across restarts (\"\" = off)")
	sweepMaxTrials := flag.Int("sweep-max-trials", 0, "per-request sweep trial cap (0 = default 50000)")
	sweepMaxN := flag.Int("sweep-max-n", 0, "per-request sweep destination cap (0 = default 2048)")
	sweepMaxK := flag.Int("sweep-max-k", 0, "per-request sweep type cap (0 = default 16)")
	sweepMaxPerturbed := flag.Int("sweep-max-perturbed", 0, "per-request perturbed-rescoring cap for sweeps (0 = default 4096)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/")
	self := flag.String("self", "", "fleet mode: this replica's advertised base URL (e.g. http://10.0.0.3:8080); \"\" = single-node")
	peers := flag.String("peers", "", "fleet mode: comma-separated base URLs of every replica (self is added if absent)")
	flag.Parse()

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	if len(peerList) > 0 && *self == "" {
		log.Fatal("hnowd: -peers requires -self (this replica's advertised URL)")
	}

	svc := service.New(service.Config{
		CacheSize:         *cacheSize,
		CacheShards:       *cacheShards,
		Workers:           *workers,
		MaxJobs:           *maxJobs,
		TableMemBytes:     *tableMem << 20,
		TableWorkers:      *tableWorkers,
		TableDir:          *tableDir,
		SweepMaxTrials:    *sweepMaxTrials,
		SweepMaxN:         *sweepMaxN,
		SweepMaxK:         *sweepMaxK,
		SweepMaxPerturbed: *sweepMaxPerturbed,
		Self:              *self,
		Peers:             peerList,
	})
	if *self != "" {
		ring := svc.RingInfo()
		log.Printf("hnowd: fleet mode, self=%s, %d members (ring %s)", ring.Self, len(ring.Members), ring.Hash)
	}
	handler := svc.Handler()
	if *pprofOn {
		// The service handler owns "/" (including /debug/vars); graft the
		// pprof routes on top so profiling is opt-in and everything else
		// falls through untouched.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("hnowd: pprof profiling enabled at /debug/pprof/")
	}
	// ReadTimeout bounds reading a whole request, body included (bodies
	// are capped at service.MaxRequestBytes), so a slow client cannot hold
	// a connection open by trickling bytes. IdleTimeout is explicit: left
	// zero, net/http would close idle keep-alive connections at
	// ReadTimeout.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Printf("hnowd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
		svc.Close()
	}()

	log.Printf("hnowd: listening on %s (cache=%d entries, %d shards)", *addr, *cacheSize, *cacheShards)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("hnowd: %v", err)
	}
	<-shutdownDone // drain in-flight requests and sweep goroutines before exiting
}
