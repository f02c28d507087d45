package trace

import (
	"bytes"
	"testing"

	"repro/internal/model"
)

// FuzzUnmarshalJSON hardens the schedule decoder against malformed input:
// it must never panic, and anything it accepts must be a valid schedule
// that re-encodes losslessly, to the same bytes as the json.Marshal
// reference encoder.
func FuzzUnmarshalJSON(f *testing.F) {
	fast := model.Node{Send: 1, Recv: 1}
	slow := model.Node{Send: 2, Recv: 3}
	set, err := model.NewMulticastSet(1, slow, fast, fast, fast, slow)
	if err != nil {
		f.Fatal(err)
	}
	sch := model.NewSchedule(set)
	sch.MustAddChild(0, 1)
	sch.MustAddChild(0, 2)
	sch.MustAddChild(1, 3)
	sch.MustAddChild(1, 4)
	seed, err := MarshalJSON(sch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"latency":1,"nodes":[{"send":1,"recv":1}],"edges":[]}`))
	f.Add([]byte(`{"latency":1,"nodes":[{"send":1,"recv":1},{"send":1,"recv":1}],"edges":[[0,1]]}`))
	f.Add([]byte(`{"latency":7,"nodes":[{"send":1099511627776,"recv":1099511627777,"name":"<&>\"\u00e9\u0000"},{"send":1099511627776,"recv":1099511627777,"name":"\u2028"}],"edges":[[0,1]]}`))
	f.Add([]byte(`{"latency":-5,"nodes":[{"send":0,"recv":0}],"edges":[[9,9]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sch, err := UnmarshalJSON(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := sch.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid schedule: %v", err)
		}
		out, err := MarshalJSON(sch)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		want, err := marshalJSONReference(sch)
		if err != nil {
			t.Fatalf("reference encode failed: %v", err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("encoding differs from json.Marshal\ngot:\n%s\nwant:\n%s", out, want)
		}
		back, err := UnmarshalJSON(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !back.Equal(sch) {
			t.Fatal("round trip not stable")
		}
		if model.RT(back) != model.RT(sch) {
			t.Fatal("round trip changed completion time")
		}
	})
}

// FuzzUnmarshalSetJSON hardens the instance decoder.
func FuzzUnmarshalSetJSON(f *testing.F) {
	f.Add([]byte(`{"latency":1,"nodes":[{"send":1,"recv":1}]}`))
	f.Add([]byte(`{"latency":0,"nodes":[]}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := UnmarshalSetJSON(data)
		if err != nil {
			return
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid set: %v", err)
		}
	})
}
