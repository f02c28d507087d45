package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// The service hot paths through a real HTTP server. The schedule hit
// benchmark measures pure cache-serving throughput (canonicalize + key +
// LRU lookup + response write); the schedule miss benchmarks measure
// full plan computation at two instance sizes; the compare miss
// benchmark plans every registry scheduler on a fresh network. Run:
//
//	go test ./internal/service -run NONE -bench 'Schedule|Compare' -benchmem
func benchServer(b *testing.B) *httptest.Server {
	svc := New(Config{CacheSize: 1 << 16})
	ts := httptest.NewServer(svc.Handler())
	b.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

func benchBody(b *testing.B, n int, seed int64, algo string, algoSeed int64) []byte {
	set, err := cluster.Generate(cluster.GenConfig{N: n, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	raw, err := trace.MarshalSetJSON(set)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(ScheduleRequest{Algo: algo, Seed: algoSeed, Set: raw})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func postSchedule(b *testing.B, url string, body []byte, wantCache string) {
	b.Helper()
	resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var sr ScheduleResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("HTTP %d", resp.StatusCode)
	}
	if wantCache != "" && sr.Cache != wantCache {
		b.Fatalf("cache = %q, want %q", sr.Cache, wantCache)
	}
}

// BenchmarkScheduleCacheHit serves one warmed plan per op: the response
// is written around the cached schedule bytes verbatim, not re-encoded.
func BenchmarkScheduleCacheHit(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ts := benchServer(b)
			body := benchBody(b, n, 1, "greedy+leafrev", 0)
			postSchedule(b, ts.URL, body, "miss") // warm the entry
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postSchedule(b, ts.URL, body, "hit")
			}
		})
	}
}

func BenchmarkScheduleCacheMiss(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ts := benchServer(b)
			// algo "random" is seed-keyed, so a fresh seed per iteration
			// forces a miss on an otherwise identical request.
			bodies := make([][]byte, 0, 512)
			for i := 0; i < 512; i++ {
				bodies = append(bodies, benchBody(b, n, 1, "random", int64(i+1)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%512 == 0 && i > 0 {
					b.StopTimer() // refresh seeds so every request still misses
					for j := range bodies {
						bodies[j] = benchBody(b, n, 1, "random", int64(i+j+1))
					}
					b.StartTimer()
				}
				postSchedule(b, ts.URL, bodies[i%512], "miss")
			}
		})
	}
}

// BenchmarkCompareMiss posts a base-model /v1/compare for a fresh n=64
// network per op, so every registry scheduler misses the plan cache and
// the schedulers fan out across GOMAXPROCS.
func BenchmarkCompareMiss(b *testing.B) {
	ts := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		body, err := json.Marshal(CompareRequest{Set: rawSet(b, genSet(b, 64, int64(i+1)))})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		resp, err := http.Post(ts.URL+"/v1/compare", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var cr CompareResponse
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(cr.RT) == 0 {
			b.Fatalf("HTTP %d, %d schedulers", resp.StatusCode, len(cr.RT))
		}
	}
}

func BenchmarkCanonicalizeKey(b *testing.B) {
	set, err := cluster.Generate(cluster.GenConfig{N: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Key(set, "greedy+leafrev", 0)
	}
}
