package trace

import "encoding/hex"

// W3C Trace Context propagation (https://www.w3.org/TR/trace-context/):
// the `traceparent` HTTP header carries a SpanContext across process
// boundaries as
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	   00   - 32 lowercase hex - 16 lowercase hex -  2 hex
//
// radiomisd extracts an inbound header so the caller's trace ID becomes
// the root of the daemon-side span tree, and injects the header on
// responses.

// TraceparentHeader is the canonical header name.
const TraceparentHeader = "traceparent"

// Traceparent renders the version-00 header with the sampled flag set.
// The zero SpanContext renders as an all-zero (invalid) header; callers
// should not send it.
func (sc SpanContext) Traceparent() string {
	buf := make([]byte, 0, 55)
	buf = append(buf, "00-"...)
	buf = hex.AppendEncode(buf, sc.Trace[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, sc.Span[:])
	buf = append(buf, "-01"...)
	return string(buf)
}

// ParseTraceparent parses a traceparent header value. It accepts any
// version except the reserved "ff", requires the four version-00 fields
// (tolerating extra future-version fields after them), and rejects the
// invalid all-zero trace and span IDs, per the W3C processing rules.
func ParseTraceparent(h string) (SpanContext, bool) {
	// version(2) - trace(32) - span(16) - flags(2), possibly followed by
	// "-extra" in future versions.
	if len(h) < 55 {
		return SpanContext{}, false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	version := h[0:2]
	if !isHex(version) || version == "ff" {
		return SpanContext{}, false
	}
	if version == "00" && len(h) != 55 {
		return SpanContext{}, false
	}
	if len(h) > 55 && h[55] != '-' {
		return SpanContext{}, false
	}
	// hex.Decode tolerates uppercase; the spec does not.
	if !isHex(h[3:35]) || !isHex(h[36:52]) || !isHex(h[53:55]) {
		return SpanContext{}, false
	}
	var sc SpanContext
	hex.Decode(sc.Trace[:], []byte(h[3:35]))
	hex.Decode(sc.Span[:], []byte(h[36:52]))
	if sc.Trace.IsZero() || sc.Span.IsZero() {
		return SpanContext{}, false
	}
	return sc, true
}

// ParseTraceID parses a 32-digit lowercase hex trace ID (the form
// TraceID.String produces and /debug/traces exports carry), rejecting the
// invalid all-zero ID.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 || !isHex(s) {
		return TraceID{}, false
	}
	hex.Decode(id[:], []byte(s))
	if id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// isHex reports whether s is entirely lowercase hex digits, as the spec
// requires (uppercase headers are invalid and must be ignored).
func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
