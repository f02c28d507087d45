package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// hnowd is one child hnowd process on loopback.
type hnowd struct {
	cmd    *exec.Cmd
	base   string
	start  time.Time
	client *http.Client
	done   chan error // receives cmd.Wait's result once the process exits
}

// freeAddr reserves a loopback port by binding it and letting it go.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startHnowd execs bin on a free loopback port (with a table spill under
// tableDir when the workload uses tables) and waits until /healthz
// answers. The returned start time is taken just before exec.
func startHnowd(bin string, w *workload, tableDir string) (*hnowd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr}
	if w.TableMemMiB > 0 {
		args = append(args, "-table-dir", tableDir, "-table-mem", strconv.FormatInt(w.TableMemMiB, 10))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The child dies with the benchmark even if the benchmark is killed;
	// main locks its OS thread so this fires only at process exit.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	h := &hnowd{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				Proxy:               nil,
				DisableCompression:  true,
				MaxIdleConnsPerHost: 2,
			},
		},
		done: make(chan error, 1),
	}
	h.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hnowd: %w", err)
	}
	go func() { h.done <- cmd.Wait() }()
	deadline := h.start.Add(30 * time.Second)
	for {
		resp, err := h.client.Get(h.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return h, nil
			}
		}
		select {
		case err := <-h.done:
			return nil, fmt.Errorf("hnowd exited before serving: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			h.stop()
			return nil, fmt.Errorf("hnowd did not answer /healthz within 30s")
		}
	}
}

func (h *hnowd) pid() int { return h.cmd.Process.Pid }

// stop asks hnowd to shut down gracefully, kills it after a grace period,
// and returns once the process has exited.
func (h *hnowd) stop() {
	h.client.CloseIdleConnections()
	h.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-h.done:
	case <-time.After(10 * time.Second):
		h.cmd.Process.Kill()
		<-h.done
	}
}

// replay sends reqs in order with one request outstanding, recording the
// response to reqs[i] in res at index first+i and, when lat is non-nil,
// its latency in ms at lat[i].
func (h *hnowd) replay(reqs []request, res *responses, first int, lat []float64) {
	var buf bytes.Buffer
	for i := range reqs {
		r := &reqs[i]
		t0 := time.Now()
		status := 0
		resp, err := h.client.Post(h.base+kindPath[r.Kind], "application/json", bytes.NewReader(r.Body))
		buf.Reset()
		if err == nil {
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if err == nil {
				status = resp.StatusCode
			}
		}
		d := time.Since(t0)
		if lat != nil {
			lat[i] = ms(d)
		}
		res.add(first+i, status, buf.Bytes())
	}
}

// vars is a /debug/vars snapshot: every integer hnowd.* counter plus the
// runtime memstats the benchmark reports.
type vars struct {
	ints map[string]int64
	mem  struct {
		TotalAlloc, Mallocs, NumGC, PauseTotalNs uint64
	}
}

func (h *hnowd) scrape() (*vars, error) {
	resp, err := h.client.Get(h.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/vars: status %d", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	v := &vars{ints: map[string]int64{}}
	for k, msg := range raw {
		if n, err := strconv.ParseInt(string(msg), 10, 64); err == nil {
			v.ints[k] = n
		}
	}
	mem, ok := raw["memstats"]
	if !ok {
		return nil, errors.New("/debug/vars: no memstats")
	}
	if err := json.Unmarshal(mem, &v.mem); err != nil {
		return nil, fmt.Errorf("/debug/vars memstats: %w", err)
	}
	return v, nil
}
