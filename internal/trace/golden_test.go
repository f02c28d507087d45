package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// This file keeps the reflection-based schedule encoder as a test-only
// oracle: build the jsonSchedule value and hand it to json.Marshal. The
// hand-written appendJSON must reproduce its bytes exactly.

// marshalJSONReference is the json.Marshal encoding of a schedule.
func marshalJSONReference(sch *model.Schedule) ([]byte, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	js := setJSONReference(sch.Set)
	// BFS emission keeps parents before children.
	queue := []model.NodeID{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range sch.Children(v) {
			js.Edges = append(js.Edges, [2]int{int(v), int(c)})
			queue = append(queue, c)
		}
	}
	var tm model.Times
	if err := model.EvalTimes(sch, &tm); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	js.Meta = &jsonTiming{RT: tm.RT, DT: tm.DT}
	return json.Marshal(js)
}

// marshalSetJSONReference is the json.Marshal encoding of a set.
func marshalSetJSONReference(set *model.MulticastSet) ([]byte, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(setJSONReference(set))
}

func setJSONReference(set *model.MulticastSet) jsonSchedule {
	js := jsonSchedule{Latency: set.Latency}
	for _, n := range set.Nodes {
		js.Nodes = append(js.Nodes, jsonNode{Send: n.Send, Recv: n.Recv, Name: n.Name})
	}
	return js
}

// goldenNames exercise JSON string escaping: HTML-sensitive characters,
// quotes, control bytes, invalid UTF-8 and the JavaScript line
// separators.
var goldenNames = []string{"", "", "fast", `<&>"é` + "\x00\xff", "tab\tnew\nline\\", "  ", "\x7f\x1f", "line\u2028sep\u2029"}

// goldenSchedule draws a valid random schedule. Overheads are either small
// or near 2^40, and the tree attaches each destination to a random
// already-attached node.
func goldenSchedule(t *testing.T, rng *rand.Rand, trial int) *model.Schedule {
	t.Helper()
	n := 1 + rng.Intn(40)
	if trial%10 == 0 {
		n = 1 // no edges: the encoding must read "edges": null
	}
	scale := int64(1)
	if trial%3 == 1 {
		scale = 1 << 40
	}
	extra := rng.Int63n(5) * scale
	set := &model.MulticastSet{Latency: 1 + rng.Int63n(scale*4), Nodes: make([]model.Node, n)}
	for i := range set.Nodes {
		send := scale - rng.Int63n(scale) + rng.Int63n(8)
		set.Nodes[i] = model.Node{Send: send, Recv: send + extra, Name: goldenNames[rng.Intn(len(goldenNames))]}
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	sch := model.NewSchedule(set)
	attached := []model.NodeID{0}
	for _, v := range rng.Perm(n - 1) {
		p := attached[rng.Intn(len(attached))]
		sch.MustAddChild(p, v+1)
		attached = append(attached, v+1)
	}
	return sch
}

// TestMarshalJSONGolden pins MarshalJSON and MarshalSetJSON to the
// json.Marshal encoding of the same value, byte for byte.
func TestMarshalJSONGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(20001))
	for trial := 0; trial < 600; trial++ {
		sch := goldenSchedule(t, rng, trial)
		got, err := MarshalJSON(sch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := marshalJSONReference(sch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: MarshalJSON differs from json.Marshal\ngot:\n%s\nwant:\n%s", trial, got, want)
		}
		got, err = MarshalSetJSON(sch.Set)
		if err != nil {
			t.Fatal(err)
		}
		want, err = marshalSetJSONReference(sch.Set)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: MarshalSetJSON differs from json.Marshal\ngot:\n%s\nwant:\n%s", trial, got, want)
		}
	}
	// A set without nodes never passes validation, but the layout still
	// has its null form.
	want, err := json.Marshal(jsonSchedule{Latency: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := appendJSON(nil, &model.MulticastSet{Latency: 3}, nil, nil); !bytes.Equal(got, want) {
		t.Fatalf("empty set: got\n%s\nwant\n%s", got, want)
	}
}
