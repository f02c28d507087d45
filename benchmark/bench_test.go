package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
)

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7, 20)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newWorkload(name, 7, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRequests(a.Warm, b.Warm) || !sameRequests(a.Timed, b.Timed) {
			t.Errorf("%s: seed 7 gave two different request lists", name)
		}
		c, err := newWorkload(name, 8, 20)
		if err != nil {
			t.Fatal(err)
		}
		if sameRequests(a.Timed, c.Timed) {
			t.Errorf("%s: seeds 7 and 8 gave the same timed list", name)
		}
	}
}

// sameRequests compares request lists field by field, bodies byte by byte.
func sameRequests(a, b []request) bool { return reflect.DeepEqual(a, b) }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

func TestParseProc(t *testing.T) {
	// The command name holds a space and a ')', as /proc allows.
	stat := "4242 (hnowd (x) y) S 1 4242 4242 0 -1 4194560 812 0 0 0 250 37 0 0 20 0 9 0 123456 1234567 890\n"
	cpu, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := 287 * 10 * time.Millisecond; cpu != want {
		t.Errorf("cpu = %v, want %v", cpu, want)
	}
	if _, err := parseStatCPU([]byte("4242 (hnowd) S 1 2")); err == nil {
		t.Error("short stat line parsed without error")
	}
	status := "Name:\thnowd\nVmPeak:\t  812340 kB\nVmHWM:\t   26712 kB\nVmRSS:\t   25100 kB\n"
	hwm, err := parseStatusKiB([]byte(status), "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if hwm != 26712 {
		t.Errorf("VmHWM = %d, want 26712", hwm)
	}
	if _, err := parseStatusKiB([]byte(status), "VmSwap"); err == nil {
		t.Error("missing VmSwap parsed without error")
	}
}

// TestTinyRuns replays a few requests of every workload through the
// service over HTTP and through the in-process replayer, and checks every
// response.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds plan-hot's 1024 warm-up plans")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 3, 12)
			if err != nil {
				t.Fatal(err)
			}
			svc := service.New(service.Config{TableMemBytes: w.TableMemMiB << 20, TableDir: t.TempDir()})
			defer svc.Close()
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			h := &hnowd{base: ts.URL, client: &http.Client{Timeout: time.Minute}}
			c := newChecker(w)
			warm, timed := newResponses(len(w.Warm)), newResponses(len(w.Timed))
			h.replay(w.Warm, warm, 0, nil)
			// The timed list goes in two blocks, as a run replays it.
			lat, half := make([]float64, len(w.Timed)), len(w.Timed)/2
			h.replay(w.Timed[:half], timed, 0, lat[:half])
			h.replay(w.Timed[half:], timed, half, lat[half:])
			if f := c.check(w.Warm, warm) + c.check(w.Timed, timed); f != 0 {
				t.Fatalf("HTTP: %d failed checks: %v", f, c.errs)
			}

			tr := &tracer{on: true, t0: time.Now()}
			p := newReplayer(tr, t.TempDir(), w.TableMemMiB)
			defer p.close()
			c = newChecker(w)
			warm, timed = newResponses(len(w.Warm)), newResponses(len(w.Timed))
			p.run(w.Warm, 0, warm)
			p.run(w.Timed, len(w.Warm), timed)
			if f := c.check(w.Warm, warm) + c.check(w.Timed, timed); f != 0 {
				t.Fatalf("replay: %d failed checks: %v", f, c.errs)
			}
			for _, s := range tr.spans {
				if s.End < s.Start {
					t.Fatalf("span %q ends before it starts", s.Name)
				}
			}
		})
	}
}
