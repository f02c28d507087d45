package trace

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
)

// This file keeps the reflection decode as a test-only oracle: the
// codec's schema as Go types, handed to json.Unmarshal. The hand decoder
// in decode.go must accept exactly the inputs it accepts and yield the
// same latency, nodes and edges.

// jsonSchedule is the serialized form of a schedule plus its instance.
type jsonSchedule struct {
	Latency int64       `json:"latency"`
	Nodes   []jsonNode  `json:"nodes"`
	Edges   [][2]int    `json:"edges"` // (parent, child) in global delivery-construction order
	Meta    *jsonTiming `json:"timing,omitempty"`
}

type jsonNode struct {
	Send int64  `json:"send"`
	Recv int64  `json:"recv"`
	Name string `json:"name,omitempty"`
}

type jsonTiming struct {
	RT int64 `json:"rt"`
	DT int64 `json:"dt"`
}

// setOfReference is the multicast set a reflection-decoded value names.
func setOfReference(js *jsonSchedule) *model.MulticastSet {
	set := &model.MulticastSet{Latency: js.Latency}
	for _, n := range js.Nodes {
		set.Nodes = append(set.Nodes, model.Node{Send: n.Send, Recv: n.Recv, Name: n.Name})
	}
	return set
}

// unmarshalSetReference is UnmarshalSetJSON through the reflection decode.
func unmarshalSetReference(data []byte) (*model.MulticastSet, error) {
	var js jsonSchedule
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, err
	}
	set := setOfReference(&js)
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}

// unmarshalJSONReference is UnmarshalJSON through the reflection decode.
func unmarshalJSONReference(data []byte) (*model.Schedule, error) {
	var js jsonSchedule
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, err
	}
	set := setOfReference(&js)
	if err := set.Validate(); err != nil {
		return nil, err
	}
	sch := model.NewSchedule(set)
	for _, e := range js.Edges {
		if err := sch.AddChild(model.NodeID(e[0]), model.NodeID(e[1])); err != nil {
			return nil, err
		}
	}
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	return sch, nil
}

// checkDecodeMatchesReference fails t unless the hand decoder and the
// reflection decode both reject data, or both accept it with the same
// latency, nodes (names included) and edges; and likewise for
// UnmarshalSetJSON and UnmarshalJSON against their reference versions.
func checkDecodeMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	var js jsonSchedule
	refErr := json.Unmarshal(data, &js)
	d, err := decodeSchedule(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decoder error %v, reflection error %v on %q", err, refErr, data)
	}
	if err == nil {
		nodes := make([]jsonNode, d.nNodes)
		for i, n := range d.nodes[:d.nNodes] {
			nodes[i] = jsonNode{Send: n.Send, Recv: n.Recv, Name: n.Name}
		}
		edges := append([][2]int(nil), d.edges[:d.nEdges]...)
		latency := d.latency
		d.release()
		if latency != js.Latency {
			t.Fatalf("latency %d, reflection %d on %q", latency, js.Latency, data)
		}
		if len(nodes) != len(js.Nodes) || len(nodes) > 0 && !reflect.DeepEqual(nodes, js.Nodes) {
			t.Fatalf("nodes %+v, reflection %+v on %q", nodes, js.Nodes, data)
		}
		if len(edges) != len(js.Edges) || len(edges) > 0 && !reflect.DeepEqual(edges, js.Edges) {
			t.Fatalf("edges %v, reflection %v on %q", edges, js.Edges, data)
		}
	}

	set, err := UnmarshalSetJSON(data)
	refSet, refErr := unmarshalSetReference(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("UnmarshalSetJSON error %v, reference error %v on %q", err, refErr, data)
	}
	if err == nil && !reflect.DeepEqual(set, refSet) {
		t.Fatalf("UnmarshalSetJSON %+v, reference %+v on %q", set, refSet, data)
	}
	sch, err := UnmarshalJSON(data)
	refSch, refErr := unmarshalJSONReference(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("UnmarshalJSON error %v, reference error %v on %q", err, refErr, data)
	}
	if err == nil && (!sch.Equal(refSch) || !reflect.DeepEqual(sch.Set, refSch.Set)) {
		t.Fatalf("UnmarshalJSON %s, reference %s on %q", sch, refSch, data)
	}
}

// decodeSeeds are inputs at the edges of the schema and of JSON itself.
var decodeSeeds = []string{
	`{"latency":1,"nodes":[{"send":1,"recv":1},{"send":1,"recv":1}],"edges":[[0,1]],"timing":{"rt":3,"dt":2}}`,
	" \t\n\r{ \"latency\" : 1 ,\n \"nodes\" : [ { \"recv\" : 1 , \"send\" : 1 } ] } \n",
	// Keys in any case, escaped, or folded to ASCII by Unicode ('ſ' is s).
	`{"LATENCY":1,"Nodes":[{"SEND":1,"ReCv":1,"NAME":"a"}],"EdGeS":[],"TIMING":null}`,
	`{"latency":1,"nodes":[{"ſend":1,"recv":1,"name":"b"}],"edgeſ":null}`,
	`{"latency":1,"nodes":[{"send":1,"recv":1,"ｓend":2,"nameK":"x"}]}`,
	// Duplicates: the last wins, and repeated arrays reuse earlier elements.
	`{"latency":1,"latency":2,"nodes":[{"send":1,"recv":1}],"nodes":[{"send":2,"recv":2},{"send":2,"recv":2}]}`,
	`{"latency":1,"nodes":[{"send":1,"recv":1,"name":"a"},{"send":2,"recv":2,"name":"b"}],"nodes":[{"send":3}],"nodes":[{},{}]}`,
	`{"latency":1,"nodes":[{"send":1,"recv":1,"name":"a"},{"send":2,"recv":2}],"nodes":[],"nodes":[{},{"send":2}]}`,
	`{"latency":1,"nodes":[{"send":1,"recv":1,"name":"a"},{"send":2,"recv":2}],"nodes":null,"nodes":[null,{"send":2}]}`,
	`{"latency":1,"nodes":[{"send":1,"recv":1},{"send":1,"recv":1},{"send":1,"recv":1}],"edges":[[0,1],[0,2]],"edges":[[0,1]],"edges":[null,[1]]}`,
	`{"latency":1,"nodes":[{"send":1,"recv":1},{"send":1,"recv":1}],"edges":[[0,1,2,"x",{"a":[]}]],"edges":[[null,null]]}`,
	`{"latency":1,"nodes":[{"send":1,"recv":1},{"send":1,"recv":1}],"edges":[[0,1]],"edges":[],"edges":[null]}`,
	`{"latency":1,"timing":{"rt":1},"timing":{"dt":2,"x":[1]},"nodes":[{"send":1,"recv":1}]}`,
	// Unknown members: skipped if valid JSON, rejected if not.
	`{"latency":1,"x":{"a":[1,2.5e-3,-0,0.0E+1,{"b":null}],"c":"é\\\"","d":true},"nodes":[{"send":1,"recv":1,"extra":[true,false,null]}]}`,
	`{"latency":1,"x":[1,],"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1,"x":01,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1,"x":1.,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1,"x":-,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1,"x":1e,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1,"x":tru,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1,"x":"\x","nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1,"x":"\u12g4","nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1,"x":{"a" 1},"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1,"x":{,},"nodes":[{"send":1,"recv":1}]}`,
	"{\"latency\":1,\"x\":\"a\x01b\",\"nodes\":[{\"send\":1,\"recv\":1}]}",
	// null leaves scalars as they were.
	`{"latency":null,"nodes":null,"edges":null,"timing":null}`,
	`{"latency":1,"latency":null,"nodes":[null,{"send":1,"recv":1,"name":"c","name":null}],"edges":[null,[null,1]]}`,
	`null`,
	" null ",
	// Escapes, surrogates and invalid UTF-8 in names.
	`{"latency":1,"nodes":[{"send":1,"recv":1,"name":"😀 \ud800 \udc00x é\t\"\\\/\b\f\n\r"}]}`,
	"{\"latency\":1,\"nodes\":[{\"send\":1,\"recv\":1,\"name\":\"\xff\xfe\xe2\x82\"}]}",
	"{\"latency\":1,\"nodes\":[{\"send\":1,\"recv\":1,\"name\":\"caf\xc3\xa9 \xe2\x80\xa8\"}]}",
	"{\"latency\":1,\"nodes\":[{\"send\":1,\"recv\":1,\"name\\u0000\":\"k\xff\"}]}",
	// The int64 range, and numbers that are not integers.
	`{"latency":9223372036854775807,"nodes":[{"send":-9223372036854775808,"recv":1}]}`,
	`{"latency":9223372036854775808,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":-9223372036854775809,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":99999999999999999999,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1.0,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1e2,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1E+2,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":-0,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":00,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":-,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":+1,"nodes":[{"send":1,"recv":1}]}`,
	`{"latency":1,"nodes":[{"send":1,"recv":1}],"edges":[[0,9223372036854775807]]}`,
	// Types the schema does not take.
	`[]`, `"x"`, `1`, `true`, `{"latency":"1"}`, `{"latency":true}`, `{"latency":[1]}`, `{"latency":{}}`,
	`{"nodes":{}}`, `{"nodes":[1]}`, `{"nodes":[[]]}`, `{"nodes":[{"name":1}]}`, `{"nodes":[{"name":[]}]}`,
	`{"edges":{}}`, `{"edges":[1]}`, `{"edges":[{}]}`, `{"edges":[[true]]}`, `{"edges":[["0"]]}`,
	`{"timing":[1]}`, `{"timing":1}`, `{"timing":{"rt":1.5}}`, `{"timing":{"dt":"x"}}`,
	// Truncated and trailing input.
	``, ` `, `{`, `{"latency"`, `{"latency":`, `{"latency":1`, `{"latency":1,`,
	`{"latency":1,"nodes":[{"send":1,`, `{"latency":1,"nodes":[{"send":1,"recv":1}]`,
	`{"latency":1,"nodes":[{"send":1,"recv":1,"name":"ab`, `{"latency":1,"nodes":[{"send":1,"recv":1,"name":"a\`,
	`{"latency":1,"nodes":[{"send":1,"recv":1}]} x`, `{"latency":1,"nodes":[{"send":1,"recv":1}]}}`,
	`{"latency":1,"nodes":[{"send":1,"recv":1}]}{}`, "{}\x00", "{\"latency\":1\x00}", "\xef\xbb\xbf{}", `{"latency":nul}`, `{"latency":1,}`,
	`{,"latency":1}`, `{"latency":1 "nodes":[]}`, `{"nodes":[,]}`, `{"nodes":[{}{}]}`, `{"edges":[[0 1]]}`,
}

// nestingSeeds sit at encoding/json's nesting limit, on either side. They
// are not fuzz seeds: minimizing a 20 KB input stalls a fuzz worker.
var nestingSeeds = []string{
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
	`{"nodes":[{"x":` + strings.Repeat("[", 9997) + strings.Repeat("]", 9997) + `}]}`,
	`{"nodes":[{"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}]}`,
}

// TestDecodeSeedsMatchReference runs decodeSeeds and nestingSeeds through
// the differential check, and names each failure by its seed.
func TestDecodeSeedsMatchReference(t *testing.T) {
	for i, s := range append(decodeSeeds[:len(decodeSeeds):len(decodeSeeds)], nestingSeeds...) {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkDecodeMatchesReference(t, []byte(s)) })
	}
}

// FuzzDecodeDifferential feeds every input to the hand decoder and to the
// reflection oracle: both reject it, or both accept it with equal sets,
// names included, and equal edges.
func FuzzDecodeDifferential(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	set, err := cluster.Generate(cluster.GenConfig{N: 8, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	data, err := MarshalSetJSON(set)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeMatchesReference(t, data)
	})
}

// genSetJSON is the codec's encoding of a generated name-free set of n
// destinations.
func genSetJSON(tb testing.TB, n int) []byte {
	tb.Helper()
	set, err := cluster.Generate(cluster.GenConfig{N: n, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range set.Nodes {
		set.Nodes[i].Name = ""
	}
	data, err := MarshalSetJSON(set)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// raceEnabled reports a -race build; race_test.go sets it.
var raceEnabled bool

// TestDecodeSetAllocs: decoding a name-free set costs a constant handful
// of allocations (the set, its nodes, and Validate's sort), whatever its
// size. Growing scratch per node, or a reflection decode, would show.
func TestDecodeSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops pooled decoders at random")
	}
	var allocs [2]float64
	for i, n := range []int{16, 64} {
		data := genSetJSON(t, n)
		allocs[i] = testing.AllocsPerRun(100, func() {
			if _, err := UnmarshalSetJSON(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] || allocs[1] > 8 {
		t.Errorf("UnmarshalSetJSON: %v allocations at n=16 and %v at n=64, want the same number, at most 8", allocs[0], allocs[1])
	}
}

// BenchmarkDecodeSet decodes one generated set per op through
// UnmarshalSetJSON, validation included.
func BenchmarkDecodeSet(b *testing.B) {
	for _, n := range []int{16, 64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := genSetJSON(b, n)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := UnmarshalSetJSON(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeSetReference is BenchmarkDecodeSet through the
// reflection oracle, for comparison.
func BenchmarkDecodeSetReference(b *testing.B) {
	for _, n := range []int{16, 64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := genSetJSON(b, n)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := unmarshalSetReference(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
