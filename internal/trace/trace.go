// Package trace is the repo's distributed-tracing substrate: a
// zero-dependency span tracer with W3C traceparent propagation and
// exporters for the Chrome trace-event and OTLP JSON formats.
//
// It completes the observability triad (docs/observability.md): the
// observer layer answers *what the simulated algorithm did*, the
// telemetry layer answers *where wall-clock time went in aggregate*, and
// this package answers *causal* questions — which HTTP request caused
// which job, how long that job sat queued, which of its trials straggled,
// and where inside a trial the engine's rounds fell on the wall clock.
//
// The design mirrors internal/telemetry: a Tracer travels by context
// (WithTracer / FromContext), instrumented code is silent and
// allocation-free when no tracer is attached, and nothing recorded here
// may influence a simulation result. Spans form trees: every span carries
// a 128-bit TraceID shared by its whole tree and a 64-bit SpanID of its
// own; the parent link is a SpanID within the same trace. A SpanContext
// (TraceID, SpanID) is the wire-portable reference that crosses process
// boundaries as a W3C traceparent header, so a caller's trace continues
// into radiomisd's spans.
//
// Finished spans land in a lock-free bounded ring (newest wins) that
// backs the daemon's /debug/traces endpoint and the exporters. All Tracer
// and Span operations are safe for concurrent use, with one caveat
// shared with OpenTelemetry: a single span's SetAttr/AddEvent/End must
// not race each other from multiple goroutines.
package trace

import (
	"context"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// TraceID identifies one causal tree of spans (128 bits, hex on the wire).
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String returns the 32-digit lowercase hex encoding.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace (64 bits, hex on the wire).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 16-digit lowercase hex encoding.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagatable reference to a span: enough to parent
// children to it, locally or across a process boundary (see Traceparent).
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// IsZero reports whether the context references no span.
func (sc SpanContext) IsZero() bool { return sc.Trace.IsZero() }

// Attr is one key/value annotation on a span or event. Values should be
// JSON-encodable scalars (string, bool, integers, float64).
type Attr struct {
	Key   string
	Value any
}

// A constructs an Attr.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Event is a point-in-time annotation within a span.
type Event struct {
	Name  string
	Time  time.Time
	Attrs []Attr
}

// Span is one named, timed operation. Fields are written by the tracer
// and the owning goroutine; they must be treated as read-only once the
// span has ended (End publishes the span to the tracer's ring, after
// which concurrent readers may hold it).
type Span struct {
	Name      string
	Trace     TraceID
	ID        SpanID
	Parent    SpanID // zero for a root span
	StartTime time.Time
	EndTime   time.Time
	Attrs     []Attr
	Events    []Event

	tracer *Tracer
	ended  atomic.Bool
}

// Context returns the span's propagatable reference. A nil span returns
// the zero SpanContext.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.Trace, Span: s.ID}
}

// Recording reports whether the span is live (non-nil and not ended) —
// instrumentation can gate expensive attribute computation on it.
func (s *Span) Recording() bool { return s != nil && !s.ended.Load() }

// SetAttr annotates the span. No-op on a nil or ended span.
func (s *Span) SetAttr(key string, value any) {
	if !s.Recording() {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// AddEvent records a point-in-time event on the span. No-op on a nil or
// ended span.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if !s.Recording() {
		return
	}
	s.Events = append(s.Events, Event{Name: name, Time: time.Now(), Attrs: attrs})
}

// End finishes the span now and publishes it to the tracer's ring.
// Safe on a nil span; ending twice is a no-op.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt is End with an explicit end time (for spans reconstructed after
// the fact, e.g. a queue wait measured between two recorded instants).
func (s *Span) EndAt(t time.Time) {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.EndTime = t
	if s.tracer != nil {
		s.tracer.ring.add(s)
	}
}

// Duration returns EndTime − StartTime (0 for a nil or unfinished span).
func (s *Span) Duration() time.Duration {
	if s == nil || s.EndTime.IsZero() {
		return 0
	}
	return s.EndTime.Sub(s.StartTime)
}

// Tracer creates spans and retains the most recent finished ones in a
// bounded ring. All methods are safe for concurrent use.
type Tracer struct {
	ring    ring
	idState atomic.Uint64
}

// DefaultCapacity is the span-ring size used when New is given a
// non-positive capacity.
const DefaultCapacity = 4096

// New returns a tracer retaining the last capacity finished spans
// (DefaultCapacity when capacity ≤ 0), with randomized span identifiers.
func New(capacity int) *Tracer {
	return NewSeeded(capacity, uint64(time.Now().UnixNano())^seedSalt)
}

// NewSeeded is New with a deterministic identifier stream — equal seeds
// yield equal TraceID/SpanID sequences, which keeps tests reproducible.
func NewSeeded(capacity int, seed uint64) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{ring: newRing(capacity)}
	t.idState.Store(seed)
	return t
}

// seedSalt decorrelates tracers created in the same nanosecond.
const seedSalt = 0x9e3779b97f4a7c15

// nextID draws the next 64-bit identifier from a splitmix64 stream over
// an atomic counter — lock-free, allocation-free, never zero.
func (t *Tracer) nextID() uint64 {
	for {
		x := t.idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	hi, lo := t.nextID(), t.nextID()
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (56 - 8*i))
		id[8+i] = byte(lo >> (56 - 8*i))
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	x := t.nextID()
	for i := 0; i < 8; i++ {
		id[i] = byte(x >> (56 - 8*i))
	}
	return id
}

// StartSpan creates a live span under parent (a zero parent starts a new
// trace) beginning at start. Callers must End it.
func (t *Tracer) StartSpan(parent SpanContext, name string, start time.Time, attrs ...Attr) *Span {
	sp := &Span{Name: name, StartTime: start, tracer: t}
	if parent.IsZero() {
		sp.Trace = t.newTraceID()
	} else {
		sp.Trace = parent.Trace
		sp.Parent = parent.Span
	}
	sp.ID = t.newSpanID()
	if len(attrs) > 0 {
		sp.Attrs = append(sp.Attrs, attrs...)
	}
	return sp
}

// Start begins a child of ctx's current span (or a new root) and returns
// ctx with the new span installed, so further Start calls nest under it.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	sp := t.StartSpan(SpanFromContext(ctx).Context(), name, time.Now(), attrs...)
	return ContextWithSpan(ctx, sp), sp
}

// Emit records an already-finished span — the shape for operations whose
// bounds were measured before tracing got involved (a queue wait between
// two recorded timestamps, an engine round slice). It returns the new
// span's context so children can still be parented to it.
func (t *Tracer) Emit(parent SpanContext, name string, start, end time.Time, attrs ...Attr) SpanContext {
	sp := t.StartSpan(parent, name, start, attrs...)
	sp.EndAt(end)
	return sp.Context()
}

// Spans returns the finished spans currently retained, oldest first. The
// snapshot is best-effort under concurrent writes: a span racing into the
// ring may be missed until the next call.
func (t *Tracer) Spans() []*Span { return t.ring.snapshot() }

// Ended returns the total number of spans finished on this tracer,
// including ones the bounded ring has already evicted.
func (t *Tracer) Ended() uint64 { return t.ring.added() }

// Capacity returns the ring's span capacity.
func (t *Tracer) Capacity() int { return len(t.ring.slots) }

type tracerKey struct{}
type spanKey struct{}

// WithTracer returns a context carrying tr. Instrumented layers resolve
// it with FromContext and stay silent — and allocation-free — when none
// is attached, exactly like telemetry.WithRegistry.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, tr)
}

// FromContext extracts the tracer installed by WithTracer, or nil.
func FromContext(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	return tr
}

// ContextWithSpan returns a context carrying sp as the current span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext extracts the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Start begins a span on ctx's tracer, nested under ctx's current span.
// Without a tracer it returns ctx unchanged and a nil span, whose methods
// are all no-ops — instrumentation sites need no conditionals:
//
//	ctx, sp := trace.Start(ctx, "harness.trial")
//	defer sp.End()
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	tr := FromContext(ctx)
	if tr == nil {
		return ctx, nil
	}
	return tr.Start(ctx, name, attrs...)
}
