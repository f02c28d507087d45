package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/trace"
)

// indented is the body hnowd wrote before its responses went compact:
// encoding/json's two-space indented encoding of v.
func indented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameMeaning fails t unless old and new decode to equal JSON values.
func sameMeaning(t *testing.T, what string, old, new []byte) {
	t.Helper()
	var a, b any
	if err := json.Unmarshal(old, &a); err != nil {
		t.Fatalf("%s: old body: %v", what, err)
	}
	if err := json.Unmarshal(new, &b); err != nil {
		t.Fatalf("%s: new body: %v\n%s", what, err, new)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: bodies differ in meaning\nold: %s\nnew: %s", what, old, new)
	}
}

// strictDecode decodes body into v, failing t on any unknown field.
func strictDecode(t *testing.T, what string, body []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v\n%s", what, err, body)
	}
}

// TestResponseBodyParity: every endpoint's compact body means what the
// indented body of the same response value meant. Where the server keeps
// the value (plan cache, bounds, job store, registry) the old body is
// rebuilt from there, not from the new body.
func TestResponseBodyParity(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	topo := testTopo(t, 11)
	for _, c := range []struct {
		name string
		set  *model.MulticastSet
		mp   ModelParams
	}{
		{"base", genSet(t, 12, 7), ModelParams{}},
		{"pipeline", genSet(t, 12, 7), ModelParams{Model: "pipeline", Segments: 4}},
		{"wan", topo.BaseSet(topo.MinLatency()), ModelParams{Model: "wan", Lat: topo.Lat}},
	} {
		raw := rawSet(t, c.set)
		canon, rm, err := resolveInstance(c.mp, raw)
		if err != nil {
			t.Fatal(err)
		}
		key := KeyCanonicalModel(canon, "greedy+leafrev", 0, rm)
		for _, label := range []string{"miss", "hit"} {
			what := fmt.Sprintf("/v1/schedule %s %s", c.name, label)
			resp, body := post(t, ts.URL+"/v1/schedule", ScheduleRequest{Set: raw, ModelParams: c.mp})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: HTTP %d: %s", what, resp.StatusCode, body)
			}
			var sr ScheduleResponse
			strictDecode(t, what, body, &sr)
			p, ok := svc.cache.Get(key)
			if !ok {
				t.Fatalf("%s: no plan cached under %q", what, key)
			}
			sameMeaning(t, what, indented(t, ScheduleResponse{
				Algo:       p.Algo,
				Key:        key,
				Cache:      label,
				RT:         p.RT,
				DT:         p.DT,
				LowerBound: p.LowerBound,
				Theorem1:   theorem1(p.Bound),
				Schedule:   p.ScheduleJSON,
			}), body)
			if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(body)) {
				t.Errorf("%s: Content-Length %q for a %d-byte body", what, got, len(body))
			}
		}
	}

	set := genSet(t, 10, 3)
	raw := rawSet(t, set)
	resp, body := post(t, ts.URL+"/v1/compare", CompareRequest{Set: raw})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/compare: HTTP %d: %s", resp.StatusCode, body)
	}
	canon := Canonicalize(set)
	scheds, err := registry.SchedulersFor(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bd := baseBoundsOf(canon)
	want := CompareResponse{RT: map[string]int64{}, LowerBound: bd.lower, Theorem1: theorem1(bd.params)}
	for _, s := range scheds {
		if p, ok := svc.cache.Get(KeyCanonical(canon, s.Name(), 0)); ok {
			want.RT[s.Name()] = p.RT
		}
	}
	sameMeaning(t, "/v1/compare", indented(t, want), body)

	resp, body = post(t, ts.URL+"/v1/table", TableRequest{Set: raw})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/table: HTTP %d: %s", resp.StatusCode, body)
	}
	var tr TableResponse
	strictDecode(t, "/v1/table", body, &tr)
	sameMeaning(t, "/v1/table", indented(t, tr), body)

	resp, body = post(t, ts.URL+"/v1/render", RenderRequest{Set: raw, Format: "json"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/render: HTTP %d: %s", resp.StatusCode, body)
	}
	p, ok := svc.cache.Get(KeyCanonical(canon, "greedy+leafrev", 0))
	if !ok || !bytes.Equal(body, p.ScheduleJSON) {
		t.Errorf("/v1/render json is not the cached schedule verbatim:\n%s", body)
	}

	algo := `no-such<algo>&"x"`
	resp, body = post(t, ts.URL+"/v1/schedule", ScheduleRequest{Algo: algo, Set: raw})
	_, lookupErr := registry.LookupFor(algo, 0, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity || lookupErr == nil {
		t.Fatalf("unknown algo: HTTP %d (%s), lookup error %v", resp.StatusCode, body, lookupErr)
	}
	old := indented(t, apiError{Error: lookupErr.Error()})
	sameMeaning(t, "error", old, body)
	if !bytes.Contains(body, []byte(`no-such\u003calgo\u003e\u0026`)) {
		t.Errorf("error body does not escape the algo name as encoding/json does: %s", body)
	}

	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", resp.StatusCode)
	}
	sameMeaning(t, "/healthz", indented(t, map[string]any{"status": "ok", "algorithms": registry.Names()}), body)

	resp, body = post(t, ts.URL+"/v1/sweeps", SweepRequest{Trials: 3, N: 4, Seed: 5})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/v1/sweeps: HTTP %d: %s", resp.StatusCode, body)
	}
	var started Job
	strictDecode(t, "POST /v1/sweeps", body, &started)
	sameMeaning(t, "POST /v1/sweeps", indented(t, started), body)
	done := waitJob(t, svc, started.ID)
	_, body = get(t, ts.URL+"/v1/sweeps/"+started.ID)
	sameMeaning(t, "GET /v1/sweeps/{id}", indented(t, done), body)
	_, body = get(t, ts.URL+"/v1/sweeps")
	sameMeaning(t, "GET /v1/sweeps", indented(t, map[string]any{"sweeps": svc.jobs.list()}), body)
}

// TestScheduleBodyMatchesEncodingJSON: outside the verbatim schedule,
// writeSchedule's body is encoding/json's compact encoding byte for byte,
// including its string escapes and its float formats.
func TestScheduleBodyMatchesEncodingJSON(t *testing.T) {
	for _, r := range []ScheduleResponse{
		{Algo: "greedy+leafrev", Key: "m=pipe:4|greedy+leafrev|s=0|L=1|src=2:3;1:1", Cache: "hit",
			RT: 6, DT: 7, LowerBound: 4, Theorem1: Theorem1{AlphaMin: 1.5, AlphaMax: 1.85, Beta: 2, C: 2.6666666666666665}},
		{Algo: "a<b>&c", Key: "q\"uote\\back\nnl\ttab\b\f\x01\x1f  é\xff", Cache: "miss",
			RT: -1, DT: math.MaxInt64, LowerBound: math.MinInt64,
			Theorem1: Theorem1{AlphaMin: 1e-7, AlphaMax: 1e21, Beta: -3, C: 123456789.125}},
		{Theorem1: Theorem1{AlphaMin: math.Copysign(0, -1), AlphaMax: 1e-6, C: 9.999999999999999e20}},
		{Theorem1: Theorem1{AlphaMin: 5e-324, AlphaMax: math.MaxFloat64, C: -2.5e-10}},
	} {
		r.Schedule = json.RawMessage(`{"latency":1,"nodes":[]}`)
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := appendScheduleResponse(nil, &r); !bytes.Equal(got, want) {
			t.Errorf("body differs from encoding/json\ngot:  %s\nwant: %s", got, want)
		}
	}
}

type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestWriteScheduleVerbatimAllocs: a plan-cache hit's body carries the
// stored schedule bytes as they are, and writing it costs the body buffer
// and the two header values: 4 allocations. An encoding/json pass over
// the schedule would cost more.
func TestWriteScheduleVerbatimAllocs(t *testing.T) {
	set := genSet(t, 64, 1)
	sch, err := registry.LookupFor("greedy+leafrev", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sch.Schedule(Canonicalize(set))
	if err != nil {
		t.Fatal(err)
	}
	var tm model.Times
	js, err := trace.MarshalTimes(s, &tm)
	if err != nil {
		t.Fatal(err)
	}
	r := &ScheduleResponse{Algo: "greedy+leafrev", Key: KeyCanonical(s.Set, "greedy+leafrev", 0), Cache: "hit",
		RT: tm.RT, DT: tm.DT, Schedule: js}
	w := &discardWriter{h: http.Header{}}
	if allocs := testing.AllocsPerRun(100, func() { writeSchedule(w, r) }); allocs > 4 {
		t.Errorf("writeSchedule: %v allocations per response, want at most 4", allocs)
	}
	body := appendScheduleResponse(nil, r)
	if !bytes.HasSuffix(body, append(js, "}\n"...)) {
		t.Errorf("schedule not written verbatim:\n%.300s", body)
	}
}
