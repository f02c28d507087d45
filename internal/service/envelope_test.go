package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// decodeBodyReference is the decode decodeBody replaces: a json.Decoder
// that disallows unknown fields, reading the body's first value.
func decodeBodyReference(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkBodyMatchesReference fails t unless decodeBody and the reference
// decoder both reject body as a PT, or both accept it with equal values.
// The one exception is a "set" that is not valid JSON: decodeBody only
// delimits it, so it may accept the body, leaving the set to the trace
// decoder, which must reject it.
func checkBodyMatchesReference[T any, PT interface {
	*T
	request
}](t *testing.T, body []byte) {
	t.Helper()
	got, want := PT(new(T)), PT(new(T))
	err := decodeBody(body, got.fields())
	refErr := decodeBodyReference(body, want)
	if err == nil && refErr != nil {
		set := reflect.ValueOf(got).Elem().FieldByName("Set").Interface().(json.RawMessage)
		if json.Valid(set) || set == nil {
			t.Fatalf("%T: decodeBody accepted %q with set %q; reference error %v", got, body, set, refErr)
		}
		if _, err := decodeSet(set); err == nil {
			t.Fatalf("%T: invalid set %q decodes", got, set)
		}
		return
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%T: decodeBody error %v, reference error %v on %q", got, err, refErr, body)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: decodeBody %+v, reference %+v on %q", got, got, want, body)
	}
}

func checkBodyAllRequests(t *testing.T, body []byte) {
	t.Helper()
	checkBodyMatchesReference[ScheduleRequest](t, body)
	checkBodyMatchesReference[CompareRequest](t, body)
	checkBodyMatchesReference[RenderRequest](t, body)
	checkBodyMatchesReference[TableRequest](t, body)
	checkBodyMatchesReference[SweepRequest](t, body)
}

const envelopeSet = `{"latency":1,"nodes":[{"send":2,"recv":3},{"send":1,"recv":1}]}`

var envelopeSeeds = []string{
	`{"set":` + envelopeSet + `}`,
	`{"algo":"greedy","seed":7,"set":` + envelopeSet + `,"model":"pipeline","segments":3}`,
	`{"seed":-9223372036854775808,"optimal":true,"set":` + envelopeSet + `}`,
	`{"format":"gantt","width":80,"set":` + envelopeSet + `}`,
	`{"set":` + envelopeSet + `,"parallelism":2}`,
	`{"trials":10,"n":16,"k":3,"seed":1,"ratio_min":1.1,"ratio_max":1.5e0,"max_send":9,"latency":2,` +
		`"schedulers":["greedy","chain"],"workers":2,"perturbed":4,"jitter":0.25,"jitter_seed":3}`,
	`{"model":"wan","wan":{"clusters":2,"nodes_per_cluster":3,"lan_latency":1,"wan_latency":20,"seed":4}}`,
	`{"model":"wan","set":` + envelopeSet + `,"lat":[[0,2],[2,0]]}`,
	// Keys in any case or folded by Unicode; the last duplicate wins, and a
	// repeated matrix or spec decodes into the earlier one.
	`{"ALGO":"a","Seed":1,"ſet":null,"ſeed":2,"K":3,"OPTIMAL":false,"optimal":true}`,
	`{"algo":"a","algo":null,"seed":5,"seed":null,"width":1,"width":null,"optimal":true,"optimal":null}`,
	`{"lat":[[1,2],[3]],"lat":[[null,4]],"wan":{"clusters":1},"wan":{"k":2},"wan":null,"wan":{"seed":1}}`,
	`{"schedulers":["a","b"],"schedulers":[null,"c",null]}`,
	// Unknown fields, here or in a nested spec, and misplaced types.
	`{"algorithm":"dp-optimal","set":` + envelopeSet + `}`,
	`{"wan":{"clusterz":1}}`,
	`{"algo":1}`, `{"seed":"1"}`, `{"seed":1.0}`, `{"seed":1e2}`, `{"optimal":1}`, `{"optimal":"true"}`,
	`{"width":9223372036854775808}`, `{"lat":{}}`, `{"lat":[["1"]]}`, `{"jitter":"x"}`, `{"jitter":1e999}`,
	`{"set":tru}`, `{"set":[1,]}`, `{"set":"\x"}`, `{"algo":"\ud800é\"","set":{"a":[{}]}}`,
	// A set is only delimited: by quotes, by brackets, or up to a delimiter.
	`{"set":,"algo":"a"}`, `{"set":}`, `{"set":]}`, `{"set":{]}`, `{"set":{}x}`, `{"set":[{"a":"]}\""}]}`,
	`{"set":"a\"b"}`, `{"set":nullx,"seed":1}`, `{"set":n"ull"}`, `{"set":1 2}`, `{"set":{"a":1}`, `{"set":"ab`,
	`{"model":"wan","wan":{"clusters":2},"set":null}`, `{"model":"wan","wan":{"clusters":2},"set":nul}`,
	// Documents that are not one object, and trailing bytes.
	``, `  `, `null`, `[]`, `"x"`, `7`, `true`, `{`, `{"set"`, `{"set":`, `{"set":1`, `{"set":1,}`,
	`{"set":1} trailing`, `{"set":1}}`, `{"set":1}{"set":2}`, `nul`, "\xef\xbb\xbf{}",
}

// TestDecodeBodySeedsMatchReference runs envelopeSeeds through the
// differential check for every request type.
func TestDecodeBodySeedsMatchReference(t *testing.T) {
	for _, s := range envelopeSeeds {
		checkBodyAllRequests(t, []byte(s))
	}
}

// FuzzDecodeBody feeds every input to decodeBody and to a json.Decoder
// that disallows unknown fields, as every request type: both reject it,
// or both accept it with equal requests.
func FuzzDecodeBody(f *testing.F) {
	for _, s := range envelopeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkBodyAllRequests)
}

// TestRequestFieldsMatchTags: every request type lists exactly its
// struct's JSON members, each bound to the field of that tag.
func TestRequestFieldsMatchTags(t *testing.T) {
	for _, req := range []request{new(ScheduleRequest), new(CompareRequest), new(RenderRequest), new(TableRequest), new(SweepRequest)} {
		want := map[string]any{}
		var walk func(v reflect.Value)
		walk = func(v reflect.Value) {
			for i := 0; i < v.NumField(); i++ {
				sf := v.Type().Field(i)
				if sf.Anonymous {
					walk(v.Field(i))
					continue
				}
				name, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
				want[name] = v.Field(i).Addr().Interface()
			}
		}
		walk(reflect.ValueOf(req).Elem())
		fs := req.fields()
		if len(fs) != len(want) {
			t.Errorf("%T: %d fields, want %d", req, len(fs), len(want))
		}
		for _, f := range fs {
			if want[f.key] != f.dst { // the same type, and the same address
				t.Errorf("%T: key %q is not bound to its field", req, f.key)
			}
		}
	}
}
