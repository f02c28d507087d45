// Package client is a small typed HTTP client for the hnowd scheduling
// service. It mirrors the request/response types of internal/service and
// is what the end-to-end tests drive the daemon with.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/trace"

	"repro/internal/model"
)

// Client talks to one hnowd server.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// New returns a client for the server at baseURL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

// APIError is a non-2xx reply: the request reached a server and was
// rejected, as opposed to a transport failure where it may never have
// arrived. Fleet routing retries transport failures on other replicas
// but returns APIErrors as-is (every replica would reject identically).
type APIError struct {
	Status  int    // HTTP status code
	Message string // server-supplied error text, "" if none
}

func (e *APIError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("HTTP %d", e.Status)
	}
	return fmt.Sprintf("%s (HTTP %d)", e.Message, e.Status)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do posts (or gets, when in is nil and method is GET) JSON and decodes
// the JSON reply into out. Non-2xx replies are returned as errors
// carrying the server's error message.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("client: reading %s %s reply: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		var body struct {
			Error string `json:"error"`
		}
		json.Unmarshal(data, &body)
		return fmt.Errorf("client: %s %s: %w", method, path, &APIError{Status: resp.StatusCode, Message: body.Error})
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding %s %s reply: %w", method, path, err)
	}
	return nil
}

// encodeSet serializes an instance for embedding in a request.
func encodeSet(set *model.MulticastSet) (json.RawMessage, error) {
	data, err := trace.MarshalSetJSON(set)
	if err != nil {
		return nil, fmt.Errorf("client: encoding set: %w", err)
	}
	return data, nil
}

// EncodeSet serializes an instance for embedding in a hand-built request
// (ScheduleWith, CompareWith, Render).
func EncodeSet(set *model.MulticastSet) (json.RawMessage, error) { return encodeSet(set) }

// Schedule computes (or fetches from the plan cache) one schedule.
func (c *Client) Schedule(ctx context.Context, set *model.MulticastSet, algo string, seed int64) (*service.ScheduleResponse, error) {
	raw, err := encodeSet(set)
	if err != nil {
		return nil, err
	}
	var out service.ScheduleResponse
	err = c.do(ctx, http.MethodPost, "/v1/schedule", service.ScheduleRequest{Algo: algo, Seed: seed, Set: raw}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ScheduleWith sends a fully specified schedule request. Use it where the
// Schedule convenience wrapper does not reach: selecting a non-base cost
// model via the request's ModelParams (model "wan" with a latency matrix,
// "pipeline" with a segment count, "reduce", "barrier") or asking the
// server to generate a clustered WAN instance in place of an embedded set.
func (c *Client) ScheduleWith(ctx context.Context, req service.ScheduleRequest) (*service.ScheduleResponse, error) {
	var out service.ScheduleResponse
	if err := c.do(ctx, http.MethodPost, "/v1/schedule", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Compare runs every polynomial scheduler on the instance; optimal also
// attempts the exact DP.
func (c *Client) Compare(ctx context.Context, set *model.MulticastSet, seed int64, optimal bool) (*service.CompareResponse, error) {
	raw, err := encodeSet(set)
	if err != nil {
		return nil, err
	}
	var out service.CompareResponse
	err = c.do(ctx, http.MethodPost, "/v1/compare", service.CompareRequest{Seed: seed, Set: raw, Optimal: optimal}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// CompareWith sends a fully specified compare request, including
// cost-model selection (see ScheduleWith). The exact DP is base-only, so
// Optimal combined with a non-base model is rejected by the server.
func (c *Client) CompareWith(ctx context.Context, req service.CompareRequest) (*service.CompareResponse, error) {
	var out service.CompareResponse
	if err := c.do(ctx, http.MethodPost, "/v1/compare", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WarmTable materializes (or reuses) the full optimal-schedule DP table
// for the set's network, after which exact optima for any multicast drawn
// from the network are constant-time lookups. parallelism caps the fill
// workers (0 = server default). The response's Cache field reports where
// the table came from — "hit" (in memory), "miss" (built now), "disk"
// (reloaded from the server's -table-dir spill, e.g. after a restart; see
// TableResponse.FromDisk) or "peer" (fetched from its fleet owner) — and
// its Mapped/SizeBytes fields report how the table is held server-side:
// SizeBytes is its cost against the server's table memory budget, and
// Mapped is true when the arrays alias a read-only mmap of the spill
// file rather than heap.
func (c *Client) WarmTable(ctx context.Context, set *model.MulticastSet, parallelism int) (*service.TableResponse, error) {
	raw, err := encodeSet(set)
	if err != nil {
		return nil, err
	}
	var out service.TableResponse
	err = c.do(ctx, http.MethodPost, "/v1/table", service.TableRequest{Set: raw, Parallelism: parallelism}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Render returns a rendered schedule (tree, gantt, dot, svg or json).
func (c *Client) Render(ctx context.Context, req service.RenderRequest) (string, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("client: encoding request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/render", bytes.NewReader(data))
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return "", fmt.Errorf("client: POST /v1/render: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: reading render reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: POST /v1/render: HTTP %d: %s", resp.StatusCode, body)
	}
	return string(body), nil
}

// StartSweep enqueues an asynchronous parameter sweep and returns the
// accepted job (poll it with SweepStatus or WaitSweep).
func (c *Client) StartSweep(ctx context.Context, req service.SweepRequest) (*service.Job, error) {
	var out service.Job
	if err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SweepStatus polls one sweep job.
func (c *Client) SweepStatus(ctx context.Context, id string) (*service.Job, error) {
	var out service.Job
	if err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitSweep polls the job until it leaves the running state or the
// context expires.
func (c *Client) WaitSweep(ctx context.Context, id string, poll time.Duration) (*service.Job, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		job, err := c.SweepStatus(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.Status != service.JobRunning {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Health checks GET /healthz and returns the advertised algorithm list.
func (c *Client) Health(ctx context.Context) ([]string, error) {
	var out struct {
		Status     string   `json:"status"`
		Algorithms []string `json:"algorithms"`
	}
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	if out.Status != "ok" {
		return nil, fmt.Errorf("client: health status %q", out.Status)
	}
	return out.Algorithms, nil
}
