package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/jsonscan"
)

// This file decodes request bodies by hand. A request type lists its
// members (fields); decodeBody walks the body's top-level object once,
// on a jsonscan.Scanner, and fills each member it names. It accepts what
// a json.Decoder with DisallowUnknownFields accepts for the same struct
// and fills the same values, which envelope_test.go checks against that
// decoder:
//
//   - keys match the JSON tags with encoding/json's case folding, and the
//     last duplicate wins;
//   - a key no field names is an error that names it;
//   - strings, integers and booleans are read by the scanner;
//   - "set" is kept as its raw bytes, only delimited here: the trace
//     codec's decoder checks and decodes them in one pass. A "set" that
//     is not valid JSON is so rejected later than encoding/json would
//     reject it, but still with a 400: every handler that accepts a
//     request decodes its set, or accepts only its absence or null;
//   - any other member (a latency matrix, a WAN spec, a sweep's floats)
//     is checked by the scanner and handed to encoding/json on its own;
//   - bytes after the first value are not read, as Decoder.Decode does
//     not read them.

// field binds one member of a request body to the request field it
// fills: key is the field's JSON tag name, dst a pointer to the field.
type field struct {
	key string
	dst any
}

// request is a request body type: its members.
type request interface {
	fields() []field
}

func (p *ModelParams) appendFields(fs []field) []field {
	return append(fs, field{"model", &p.Model}, field{"segments", &p.Segments}, field{"lat", &p.Lat}, field{"wan", &p.WAN})
}

func (r *ScheduleRequest) fields() []field {
	return r.ModelParams.appendFields([]field{{"algo", &r.Algo}, {"seed", &r.Seed}, {"set", &r.Set}})
}

func (r *CompareRequest) fields() []field {
	return r.ModelParams.appendFields([]field{{"seed", &r.Seed}, {"set", &r.Set}, {"optimal", &r.Optimal}})
}

func (r *RenderRequest) fields() []field {
	return r.ModelParams.appendFields([]field{{"algo", &r.Algo}, {"seed", &r.Seed}, {"set", &r.Set},
		{"format", &r.Format}, {"width", &r.Width}})
}

func (r *TableRequest) fields() []field {
	return []field{{"set", &r.Set}, {"parallelism", &r.Parallelism}}
}

func (r *SweepRequest) fields() []field {
	return []field{{"trials", &r.Trials}, {"n", &r.N}, {"k", &r.K}, {"seed", &r.Seed},
		{"ratio_min", &r.RatioMin}, {"ratio_max", &r.RatioMax}, {"max_send", &r.MaxSend},
		{"latency", &r.Latency}, {"schedulers", &r.Schedulers}, {"workers", &r.Workers},
		{"perturbed", &r.Perturbed}, {"jitter", &r.Jitter}, {"jitter_seed", &r.JitterSeed},
		{"model", &r.Model}, {"segments", &r.Segments}, {"wan", &r.WAN}}
}

// readBody reads a request body of at most limit bytes. A longer body is
// an *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	if r.ContentLength < 0 { // length unknown: chunked
		return io.ReadAll(body)
	}
	buf := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(body, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// decodeBody fills fs from the JSON object (or null) at the start of
// body. A json.RawMessage member aliases body, and is delimited, not
// checked.
func decodeBody(body []byte, fs []field) error {
	var s jsonscan.Scanner
	s.Reset(body)
	switch s.Peek() {
	case '{':
		return s.Object(1, func(k jsonscan.Key, depth int) error {
			for _, f := range fs {
				if k.Is(f.key) {
					return decodeField(&s, f.dst, depth)
				}
			}
			return fmt.Errorf("unknown field %q", k.String())
		})
	case 'n':
		return s.Literal("null")
	case '[', '"', 't', 'f', '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return s.TypeError("an object")
	}
	if s.AtEnd() {
		return io.EOF
	}
	return s.SyntaxError()
}

// decodeField reads the member value at the cursor into dst.
func decodeField(s *jsonscan.Scanner, dst any, depth int) error {
	switch p := dst.(type) {
	case *string:
		return s.String(p)
	case *int:
		return s.Int(p)
	case *int64:
		return s.Int64(p)
	case *bool:
		return s.Bool(p)
	case *json.RawMessage:
		raw, err := s.Delimit()
		if err == nil {
			*p = raw
		}
		return err
	}
	raw, err := s.Raw(depth)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}
