package server

import (
	"bytes"
	"encoding/json"
	"math"
)

// decodeScheduleRequest decodes a POST /v1/schedule body. A body in the
// plain shape that every client in this repository sends is parsed
// directly; any other body goes, unchanged, to encoding/json. Either way
// the body decodes to the request, or fails with the error, that
// json.Decoder with DisallowUnknownFields gives it.
func decodeScheduleRequest(body []byte) (ScheduleRequest, error) {
	if req, ok := parsePlainSchedule(body); ok {
		return req, nil
	}
	var req ScheduleRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// parsePlainSchedule parses body if it is one JSON object in the plain
// shape:
//
//   - keys drawn from algorithm, family, n, seed and edges, each at most
//     once;
//   - strings of printable ASCII without escapes;
//   - integers without fraction, exponent or leading zero that fit their
//     field (only n and edge endpoints may be negative);
//   - edges as an array of two-integer arrays;
//   - JSON whitespace anywhere, and nothing else after the object.
//
// It reports false for any other body, including bodies encoding/json
// accepts. Their key case folding, escapes, nulls, padded or truncated
// pairs and trailing data are left to encoding/json rather than copied.
func parsePlainSchedule(body []byte) (ScheduleRequest, bool) {
	var req ScheduleRequest
	p := plainParser{b: body}
	if !p.byte('{') {
		return req, false
	}
	var seen uint8
	for {
		key, ok := p.str()
		if !ok || !p.byte(':') {
			return req, false
		}
		var field uint8
		switch string(key) {
		case "algorithm":
			field = 1 << 0
			var s []byte
			s, ok = p.str()
			req.Algorithm = string(s)
		case "family":
			field = 1 << 1
			var s []byte
			s, ok = p.str()
			req.Family = string(s)
		case "n":
			field = 1 << 2
			req.N, ok = p.int()
		case "seed":
			field = 1 << 3
			p.ws()
			req.Seed, ok = p.digits(math.MaxUint64)
		case "edges":
			field = 1 << 4
			req.Edges, ok = p.edges()
		default:
			return req, false
		}
		if !ok || seen&field != 0 {
			return req, false
		}
		seen |= field
		if !p.byte(',') {
			break
		}
	}
	return req, p.byte('}') && p.end()
}

// plainParser is parsePlainSchedule's cursor over the body.
type plainParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *plainParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// byte skips whitespace and consumes c if it comes next.
func (p *plainParser) byte(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *plainParser) end() bool {
	p.ws()
	return p.i == len(p.b)
}

// str parses a string of printable ASCII without escapes and returns its
// contents, which alias the body.
func (p *plainParser) str() ([]byte, bool) {
	if !p.byte('"') {
		return nil, false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// digits parses the digits of an integer no greater than max, with no
// leading zero. A fraction or exponent is left unread, so the caller, which
// expects a delimiter next, rejects the body.
func (p *plainParser) digits(max uint64) (uint64, bool) {
	start := p.i
	var v uint64
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		d := uint64(p.b[p.i] - '0')
		if v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	n := p.i - start
	return v, n > 0 && (n == 1 || p.b[start] != '0')
}

// int parses an integer literal that fits an int.
func (p *plainParser) int() (int, bool) {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
		v, ok := p.digits(uint64(math.MaxInt) + 1)
		// Two's complement: negating in uint64 and converting gives the
		// negative value, MinInt included.
		return int(-v), ok
	}
	v, ok := p.digits(math.MaxInt)
	return int(v), ok
}

// edges parses an array of two-integer arrays. An empty array gives an
// empty, non-nil slice, as encoding/json does.
func (p *plainParser) edges() ([][2]int, bool) {
	if !p.byte('[') {
		return nil, false
	}
	// Every pair opens with '[' and takes at least six bytes with its
	// separator, which sizes the slice without a second pass.
	rest := p.b[p.i:]
	edges := make([][2]int, 0, min(bytes.Count(rest, []byte{'['}), len(rest)/6))
	if p.byte(']') {
		return edges, true
	}
	for {
		var e [2]int
		var ok bool
		if !p.byte('[') {
			return nil, false
		}
		if e[0], ok = p.int(); !ok || !p.byte(',') {
			return nil, false
		}
		if e[1], ok = p.int(); !ok || !p.byte(']') {
			return nil, false
		}
		edges = append(edges, e)
		if !p.byte(',') {
			return edges, p.byte(']')
		}
	}
}
