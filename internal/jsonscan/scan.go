// Package jsonscan reads JSON by hand, one value at a time, for decoders
// that know their schema: the trace codec's set and schedule, and hnowd's
// request envelopes. A Scanner accepts exactly what encoding/json's
// decoder accepts and checks every byte once:
//
//   - whitespace anywhere between tokens;
//   - object keys matched to names with encoding/json's case folding
//     (Key.Is);
//   - integers in int64's range, not 1.0 or 1e2 (Int64, Int);
//   - a skipped value checked to be valid JSON, nested at most MaxDepth
//     arrays and objects deep (Skip, Raw);
//   - null, which leaves a scalar as it was (Int64, Int, Bool, String).
//
// A string holding a backslash or a byte over 0x7f is unquoted by
// encoding/json alone, which owns escapes, surrogates and the U+FFFD
// replacement of invalid UTF-8.
package jsonscan

import (
	"encoding/json"
	"fmt"
	"unicode"
	"unicode/utf8"
)

// MaxDepth is encoding/json's nesting limit for arrays and objects.
const MaxDepth = 10000

// Scanner is a cursor over one JSON document.
type Scanner struct {
	data []byte
	pos  int
}

// Reset points the scanner at the start of data.
func (s *Scanner) Reset(data []byte) { s.data, s.pos = data, 0 }

// Peek skips whitespace and returns the byte at the cursor, or 0 at the
// end of the input (see AtEnd).
func (s *Scanner) Peek() byte {
	for ; s.pos < len(s.data); s.pos++ {
		if c := s.data[s.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// AtEnd reports whether the cursor is at the end of the input.
func (s *Scanner) AtEnd() bool { return s.pos >= len(s.data) }

// End checks that only whitespace follows the cursor.
func (s *Scanner) End() error {
	if s.Peek(); !s.AtEnd() {
		return s.SyntaxError()
	}
	return nil
}

// SyntaxError reports invalid JSON at the cursor.
func (s *Scanner) SyntaxError() error {
	if s.AtEnd() {
		return fmt.Errorf("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", s.data[s.pos], s.pos)
}

// TypeError reports a value at the cursor that is not the wanted kind.
func (s *Scanner) TypeError(want string) error {
	return fmt.Errorf("offset %d: want %s", s.pos, want)
}

// Object reads the object at the cursor, which opens nesting level depth,
// handing each member's key to member with the cursor on its value.
// member must consume the value.
func (s *Scanner) Object(depth int, member func(k Key, depth int) error) error {
	if depth > MaxDepth {
		return s.SyntaxError()
	}
	s.pos++ // '{'
	for first := true; ; first = false {
		c := s.Peek()
		if c == '}' {
			s.pos++
			return nil
		}
		if !first {
			if c != ',' {
				return s.SyntaxError()
			}
			s.pos++
			c = s.Peek()
		}
		if c != '"' {
			return s.SyntaxError()
		}
		raw, plain, err := s.quoted()
		if err != nil {
			return err
		}
		if s.Peek() != ':' {
			return s.SyntaxError()
		}
		s.pos++
		if s.Peek(); s.AtEnd() {
			return s.SyntaxError()
		}
		if err := member(Key{raw: raw, plain: plain}, depth); err != nil {
			return err
		}
	}
}

// Array reads the array at the cursor, calling elem with each element's
// index and the cursor on it, and returns the element count. elem must
// consume the element.
func (s *Scanner) Array(elem func(i int) error) (int, error) {
	s.pos++ // '['
	for i := 0; ; i++ {
		c := s.Peek()
		if c == ']' {
			s.pos++
			return i, nil
		}
		if i > 0 {
			if c != ',' {
				return 0, s.SyntaxError()
			}
			s.pos++
			s.Peek()
		}
		if s.AtEnd() {
			return 0, s.SyntaxError()
		}
		if err := elem(i); err != nil {
			return 0, err
		}
	}
}

// Literal consumes the literal lit (true, false or null) at the cursor.
func (s *Scanner) Literal(lit string) error {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return s.SyntaxError()
	}
	s.pos += len(lit)
	return nil
}

// Int64 reads an integer in int64's range into *p, or null, which leaves
// *p as it was.
func (s *Scanner) Int64(p *int64) error {
	c := s.data[s.pos]
	if c == 'n' {
		return s.Literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		if c == '"' || c == '[' || c == '{' || c == 't' || c == 'f' {
			return s.TypeError("an integer")
		}
		return s.SyntaxError()
	}
	start := s.pos
	neg := c == '-'
	if neg {
		s.pos++
	}
	if s.AtEnd() || s.data[s.pos] < '0' || s.data[s.pos] > '9' {
		return s.SyntaxError()
	}
	const limit = 1 << 63
	var u uint64
	for digits := 1; s.pos < len(s.data); digits++ {
		c := s.data[s.pos]
		if c < '0' || c > '9' {
			break
		}
		if digits == 2 && u == 0 {
			return s.SyntaxError() // a leading zero
		}
		dgt := uint64(c - '0')
		if u > (limit-dgt)/10 {
			s.pos = start
			return s.TypeError("an integer in int64's range")
		}
		u = u*10 + dgt
		s.pos++
	}
	if !s.AtEnd() {
		if c := s.data[s.pos]; c == '.' || c == 'e' || c == 'E' {
			s.pos = start
			return s.TypeError("an integer")
		}
	}
	if !neg && u == limit {
		s.pos = start
		return s.TypeError("an integer in int64's range")
	}
	if neg {
		*p = -int64(u)
	} else {
		*p = int64(u)
	}
	return nil
}

// Int is Int64 for an int.
func (s *Scanner) Int(p *int) error {
	v := int64(*p)
	if err := s.Int64(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return s.TypeError("an integer in int's range")
	}
	*p = int(v)
	return nil
}

// Bool reads true or false into *p, or null, which leaves *p as it was.
func (s *Scanner) Bool(p *bool) error {
	switch s.data[s.pos] {
	case 't':
		if err := s.Literal("true"); err != nil {
			return err
		}
		*p = true
		return nil
	case 'f':
		if err := s.Literal("false"); err != nil {
			return err
		}
		*p = false
		return nil
	case 'n':
		return s.Literal("null")
	case '"', '[', '{', '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return s.TypeError("a boolean")
	}
	return s.SyntaxError()
}

// String reads a string into *p, or null, which leaves *p as it was.
func (s *Scanner) String(p *string) error {
	switch s.data[s.pos] {
	case '"':
	case 'n':
		return s.Literal("null")
	case '[', '{', 't', 'f', '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return s.TypeError("a string")
	default:
		return s.SyntaxError()
	}
	raw, plain, err := s.quoted()
	if err != nil {
		return err
	}
	if plain {
		*p = string(raw[1 : len(raw)-1])
		return nil
	}
	return json.Unmarshal(raw, p)
}

// quoted consumes the string at the cursor and returns it with its
// quotes. plain reports that it holds no escape and no byte over 0x7f, so
// its contents are its value.
func (s *Scanner) quoted() (raw []byte, plain bool, err error) {
	start := s.pos
	plain = true
	for s.pos++; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.data[start:s.pos], plain, nil
		case c < 0x20:
			return nil, false, s.SyntaxError()
		case c == '\\':
			plain = false
			s.pos++
			if s.AtEnd() {
				return nil, false, s.SyntaxError()
			}
			switch s.data[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for i := 0; i < 4; i++ {
					s.pos++
					if s.AtEnd() || !isHex(s.data[s.pos]) {
						return nil, false, s.SyntaxError()
					}
				}
			default:
				return nil, false, s.SyntaxError()
			}
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, false, s.SyntaxError()
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// Skip checks and consumes the value at the cursor, nested in depth open
// arrays and objects.
func (s *Scanner) Skip(depth int) error {
	switch s.data[s.pos] {
	case '{':
		return s.Object(depth+1, func(_ Key, depth int) error { return s.Skip(depth) })
	case '[':
		if depth+1 > MaxDepth {
			return s.SyntaxError()
		}
		_, err := s.Array(func(int) error { return s.Skip(depth + 1) })
		return err
	case '"':
		_, _, err := s.quoted()
		return err
	case 't':
		return s.Literal("true")
	case 'f':
		return s.Literal("false")
	case 'n':
		return s.Literal("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return s.number()
	}
	return s.SyntaxError()
}

// Raw is Skip returning the value's bytes.
func (s *Scanner) Raw(depth int) ([]byte, error) {
	start := s.pos
	if err := s.Skip(depth); err != nil {
		return nil, err
	}
	return s.data[start:s.pos], nil
}

// Delimit consumes the value at the cursor, checking only enough to find
// where it ends: strings by their quotes and escapes, arrays and objects
// by their brackets, and anything else up to the next delimiter. It is
// for a value that a later pass decodes and checks whole, so the bytes it
// returns may be invalid JSON; if they are valid, they are the value
// Raw would return.
func (s *Scanner) Delimit() ([]byte, error) {
	start, depth := s.pos, 0
	for ; s.pos < len(s.data); s.pos++ {
		switch s.data[s.pos] {
		case '"':
			for s.pos++; s.pos < len(s.data) && s.data[s.pos] != '"'; s.pos++ {
				if s.data[s.pos] == '\\' {
					s.pos++
				}
			}
			if s.pos >= len(s.data) {
				return nil, s.SyntaxError()
			}
			if depth == 0 {
				s.pos++
				return s.data[start:s.pos], nil
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth == 0 {
				s.pos++
				return s.data[start:s.pos], nil
			}
			if depth < 0 {
				return s.end(start)
			}
		case ',', ':', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return s.end(start)
			}
		}
	}
	return nil, s.SyntaxError()
}

// end returns Delimit's scalar value from start to the cursor, which is
// at its delimiter. An empty value is a syntax error.
func (s *Scanner) end(start int) ([]byte, error) {
	if s.pos == start {
		return nil, s.SyntaxError()
	}
	return s.data[start:s.pos], nil
}

// number consumes a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *Scanner) number() error {
	if s.data[s.pos] == '-' {
		s.pos++
	}
	switch {
	case !s.AtEnd() && s.data[s.pos] == '0':
		s.pos++ // no digit may follow a leading zero: the caller finds no delimiter
	case s.digits() == 0:
		return s.SyntaxError()
	}
	if !s.AtEnd() && s.data[s.pos] == '.' {
		s.pos++
		if s.digits() == 0 {
			return s.SyntaxError()
		}
	}
	if !s.AtEnd() && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if !s.AtEnd() && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if s.digits() == 0 {
			return s.SyntaxError()
		}
	}
	return nil
}

// digits consumes a run of digits and returns its length.
func (s *Scanner) digits() int {
	start := s.pos
	for !s.AtEnd() && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos - start
}

// Key is an object member's key, as read by Object.
type Key struct {
	raw   []byte // with its quotes
	plain bool   // no escape and no byte over 0x7f
}

// Is reports whether the key names the field name, a lower-case ASCII
// JSON tag, as encoding/json matches a key to a struct field: equal after
// case folding, so "Nodes" and "ſend" ('ſ' folds to s) match.
func (k Key) Is(name string) bool {
	if k.plain {
		b := k.raw[1 : len(k.raw)-1]
		if len(b) != len(name) {
			return false
		}
		for i, c := range b {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != name[i] {
				return false
			}
		}
		return true
	}
	return foldKey(k.String()) == foldKey(name)
}

// String returns the key's value, unquoted.
func (k Key) String() string {
	if k.plain {
		return string(k.raw[1 : len(k.raw)-1])
	}
	var s string
	json.Unmarshal(k.raw, &s) // Object checked the string
	return s
}

// foldKey folds s as encoding/json folds a key before matching it to a
// field name: ASCII letters to upper case, and every other rune to the
// least rune of its Unicode simple-fold orbit.
func foldKey(s string) string {
	out := make([]byte, 0, len(s))
	for _, r := range s {
		if r < utf8.RuneSelf {
			if 'a' <= r && r <= 'z' {
				r -= 'a' - 'A'
			}
			out = append(out, byte(r))
			continue
		}
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
	}
	return string(out)
}
