package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// FuzzHTTPRequests sends fuzzed JSON bodies through the whole handler to
// /v1/schedule, /v1/compare and /v1/render: decode, validate,
// canonicalize, schedule, score, encode or render (the body picks the
// render format and width). No endpoint may panic or answer anything but
// 200, 400, 413 or 422, and a 413 only for a body over the server's cap,
// lowered here to 2 KiB. A 200 schedule must decode through the trace codec
// onto the request's canonical instance and re-evaluate under the
// request's model to exactly the reported rt/dt, with rt at least the
// lower bound; a 200 compare must report no rt below its lower bound.
func FuzzHTTPRequests(f *testing.F) {
	const fuzzMaxRequestBytes = 2 << 10
	const base = `{"latency":1,"nodes":[{"send":2,"recv":3},{"send":1,"recv":1},{"send":1,"recv":1},{"send":3,"recv":4}]}`
	for _, body := range []string{
		`{"set":` + base + `}`,
		`{"algo":"greedy","set":` + base + `}`,
		`{"optimal":true,"set":` + base + `}`,
		`{"model":"wan","set":` + base + `,"lat":[[0,2,5,9],[2,0,4,4],[7,1,0,3],[1,1,1,0]]}`,
		`{"model":"wan","wan":{"clusters":2,"nodes_per_cluster":3,"lan_latency":1,"wan_latency":20,"seed":4}}`,
		`{"model":"pipeline","segments":3,"set":` + base + `}`,
		`{"model":"reduce","set":` + base + `}`,
		`{"model":"barrier","set":` + base + `}`,
		`{"format":"dot","set":` + base + `}`,
		`{"format":"gantt","width":1001,"set":` + base + `}`,
		`{"format":"gantt","set":{"latency":1000000000000000,"nodes":[{"send":2,"recv":3},{"send":1,"recv":1},{"send":1,"recv":1}]}}`,
		`{"set":` + base + strings.Repeat(" ", fuzzMaxRequestBytes) + `}`,
	} {
		f.Add([]byte(body))
	}
	set, lat := overflowWAN(f)
	overflow, err := json.Marshal(ScheduleRequest{Set: set, ModelParams: ModelParams{Model: "wan", Lat: lat}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(overflow)
	svc := New(Config{CacheSize: 256, TableMemBytes: 16 << 20})
	defer svc.Close()
	// Instance size is bounded by the body here; the cap keeps each input
	// to a few dozen nodes so the smoke run covers many shapes.
	svc.maxRequestBytes = fuzzMaxRequestBytes
	h := svc.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 2*fuzzMaxRequestBytes {
			t.Skip("body over twice the cap")
		}
		for _, path := range []string{"/v1/schedule", "/v1/compare", "/v1/render"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
			case http.StatusBadRequest, http.StatusUnprocessableEntity:
				continue
			case http.StatusRequestEntityTooLarge:
				if len(body) <= fuzzMaxRequestBytes {
					t.Fatalf("%s: HTTP 413 for a %d-byte body under the cap: %s", path, len(body), rec.Body)
				}
				continue
			default:
				t.Fatalf("%s: HTTP %d for %q: %s", path, rec.Code, body, rec.Body)
			}
			switch path {
			case "/v1/schedule":
				checkScheduleResponse(t, body, rec.Body.Bytes())
			case "/v1/compare":
				checkCompareResponse(t, body, rec.Body.Bytes())
			}
		}
	})
}

// checkScheduleResponse re-derives a 200 /v1/schedule answer from its
// request: the schedule must be over the request's canonical instance and
// score rt/dt under the request's model.
func checkScheduleResponse(t *testing.T, body, out []byte) {
	t.Helper()
	var req ScheduleRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		t.Fatalf("200 for an undecodable request %q: %v", body, err)
	}
	canon, rm, err := resolveInstance(req.ModelParams, req.Set)
	if err != nil {
		t.Fatalf("200 for an invalid instance %q: %v", body, err)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatalf("schedule response %s: %v", out, err)
	}
	sch, err := trace.UnmarshalJSON(resp.Schedule)
	if err != nil {
		t.Fatalf("schedule for %q does not decode: %v\n%s", body, err, resp.Schedule)
	}
	if !sameInstance(sch.Set, canon) {
		t.Fatalf("schedule for %q is over %+v, want the canonical %+v", body, sch.Set, canon)
	}
	if rm.cm != nil {
		sch.BindModel(rm.cm)
	}
	var tm model.Times
	if err := model.EvalTimes(sch, &tm); err != nil {
		t.Fatalf("re-evaluating the schedule for %q: %v", body, err)
	}
	if tm.RT != resp.RT || tm.DT != resp.DT {
		t.Fatalf("%q: reported rt/dt %d/%d, schedule evaluates to %d/%d", body, resp.RT, resp.DT, tm.RT, tm.DT)
	}
	if resp.RT < resp.LowerBound {
		t.Fatalf("%q: rt %d below lower_bound %d", body, resp.RT, resp.LowerBound)
	}
}

// checkCompareResponse checks a 200 /v1/compare answer against its own
// lower bound.
func checkCompareResponse(t *testing.T, body, out []byte) {
	t.Helper()
	var resp CompareResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatalf("compare response %s: %v", out, err)
	}
	for name, rt := range resp.RT {
		if rt < resp.LowerBound {
			t.Fatalf("%q: %s rt %d below lower_bound %d", body, name, rt, resp.LowerBound)
		}
	}
	if resp.Optimal != nil && *resp.Optimal < resp.LowerBound {
		t.Fatalf("%q: optimal %d below lower_bound %d", body, *resp.Optimal, resp.LowerBound)
	}
}

// sameInstance reports whether two sets have equal latency and per-node
// overheads (names are not part of the canonical instance).
func sameInstance(a, b *model.MulticastSet) bool {
	if a.Latency != b.Latency || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i].Send != b.Nodes[i].Send || a.Nodes[i].Recv != b.Nodes[i].Recv {
			return false
		}
	}
	return true
}
