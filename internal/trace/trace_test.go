package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartParentLinks(t *testing.T) {
	tr := NewSeeded(16, 1)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "root")
	if root == nil {
		t.Fatal("Start with tracer returned nil span")
	}
	if root.Trace.IsZero() || root.ID.IsZero() {
		t.Fatalf("root span has zero IDs: %+v", root)
	}
	if !root.Parent.IsZero() {
		t.Fatalf("root span has a parent: %v", root.Parent)
	}

	_, child := Start(ctx, "child")
	if child.Trace != root.Trace {
		t.Fatalf("child trace %v != root trace %v", child.Trace, root.Trace)
	}
	if child.Parent != root.ID {
		t.Fatalf("child parent %v != root span %v", child.Parent, root.ID)
	}

	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d retained spans, want 2", len(spans))
	}
	if spans[0] != child || spans[1] != root {
		t.Fatalf("spans not in end order: %q, %q", spans[0].Name, spans[1].Name)
	}
}

func TestStartWithoutTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "orphan")
	if sp != nil {
		t.Fatalf("Start without tracer returned span %+v", sp)
	}
	if ctx2 != ctx {
		t.Fatal("Start without tracer replaced the context")
	}
	// All nil-span methods are no-ops.
	sp.SetAttr("k", "v")
	sp.AddEvent("e")
	sp.End()
	sp.EndAt(time.Now())
	if sc := sp.Context(); !sc.IsZero() {
		t.Fatalf("nil span context = %+v, want zero", sc)
	}
	if sp.Recording() {
		t.Fatal("nil span reports Recording")
	}
	if d := sp.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
}

func TestEndIsIdempotentAndFreezes(t *testing.T) {
	tr := NewSeeded(16, 2)
	sp := tr.StartSpan(SpanContext{}, "x", time.Now())
	sp.SetAttr("before", 1)
	sp.End()
	end := sp.EndTime
	sp.SetAttr("after", 2)
	sp.AddEvent("after")
	sp.End()
	if sp.EndTime != end {
		t.Fatal("second End moved EndTime")
	}
	if len(sp.Attrs) != 1 || len(sp.Events) != 0 {
		t.Fatalf("post-End mutation stuck: attrs=%v events=%v", sp.Attrs, sp.Events)
	}
	if got := tr.Ended(); got != 1 {
		t.Fatalf("Ended = %d, want 1 (double End must publish once)", got)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := NewSeeded(4, 3)
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan(SpanContext{}, "s", time.Now(), A("i", i))
		sp.End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want ring capacity 4", len(spans))
	}
	for k, sp := range spans {
		if want := 6 + k; sp.Attrs[0].Value.(int) != want {
			t.Fatalf("slot %d holds span %v, want %d (oldest-first)", k, sp.Attrs[0].Value, want)
		}
	}
	if tr.Ended() != 10 {
		t.Fatalf("Ended = %d, want 10", tr.Ended())
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	tr := New(64)
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, sp := Start(ctx, "w", A("g", g), A("i", i))
				sp.AddEvent("tick")
				sp.End()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, sp := range tr.Spans() {
				_ = sp.Duration()
				_ = sp.Name
			}
		}
	}()
	wg.Wait()
	<-done
	if tr.Ended() != 800 {
		t.Fatalf("Ended = %d, want 800", tr.Ended())
	}
}

func TestDeterministicIDs(t *testing.T) {
	a, b := NewSeeded(4, 42), NewSeeded(4, 42)
	sa := a.StartSpan(SpanContext{}, "x", time.Time{})
	sb := b.StartSpan(SpanContext{}, "x", time.Time{})
	if sa.Trace != sb.Trace || sa.ID != sb.ID {
		t.Fatalf("equal seeds diverged: %v/%v vs %v/%v", sa.Trace, sa.ID, sb.Trace, sb.ID)
	}
	c := NewSeeded(4, 43)
	if sc := c.StartSpan(SpanContext{}, "x", time.Time{}); sc.Trace == sa.Trace {
		t.Fatal("different seeds produced the same trace ID")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewSeeded(4, 7)
	sp := tr.StartSpan(SpanContext{}, "x", time.Now())
	h := sp.Context().Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("malformed traceparent %q", h)
	}
	sc, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent rejected own output %q", h)
	}
	if sc != sp.Context() {
		t.Fatalf("round trip changed context: %+v != %+v", sc, sp.Context())
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",          // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // version 00 with extra field
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // reserved version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // zero span
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",       // uppercase
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // bad separator
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // bad version
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent accepted %q", h)
		}
	}
	// A future version may carry extra fields.
	if _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what"); !ok {
		t.Error("ParseTraceparent rejected a valid future-version header")
	}
}

func TestEmit(t *testing.T) {
	tr := NewSeeded(8, 9)
	start := time.Unix(100, 0)
	end := start.Add(250 * time.Millisecond)
	parent := tr.StartSpan(SpanContext{}, "root", start)
	sc := tr.Emit(parent.Context(), "queued", start, end, A("jobId", "j000001"))
	if sc.Trace != parent.Trace {
		t.Fatal("Emit did not inherit the parent's trace")
	}
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1 (parent is still live)", len(spans))
	}
	sp := spans[0]
	if sp.Name != "queued" || sp.Duration() != 250*time.Millisecond || sp.Parent != parent.ID {
		t.Fatalf("emitted span wrong: %+v", sp)
	}
}

// FuzzParseTraceparent feeds ParseTraceparent arbitrary header values. It
// must never panic. A header it accepts holds the decoded IDs in its
// fields, and re-renders through SpanContext.Traceparent to a header that
// parses back to the same context. The same header with its hex in
// uppercase, with the reserved version ff, or with an all-zero trace or
// span ID must be rejected.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00-what",
		"fe-00000000000000000000000000000001-0000000000000001-ff-",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", h, sc)
			}
			return
		}
		if h[3:35] != sc.Trace.String() || h[36:52] != sc.Span.String() {
			t.Fatalf("accepted %q as trace %s span %s", h, sc.Trace, sc.Span)
		}
		back := sc.Traceparent()
		if again, ok := ParseTraceparent(back); !ok || again != sc {
			t.Fatalf("%q re-renders as %q, which parses to %+v, %v", h, back, again, ok)
		}
		invalid := map[string]string{
			"uppercase":  h[:3] + strings.ToUpper(h[3:55]) + h[55:],
			"version ff": "ff" + h[2:],
			"zero trace": h[:3] + strings.Repeat("0", 32) + h[35:],
			"zero span":  h[:36] + strings.Repeat("0", 16) + h[52:],
		}
		for what, bad := range invalid {
			if bad == h {
				continue // no hex letters to raise
			}
			if _, ok := ParseTraceparent(bad); ok {
				t.Fatalf("accepted %q (%s of %q)", bad, what, h)
			}
		}
	})
}
