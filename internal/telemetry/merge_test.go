package telemetry

import (
	"reflect"
	"strings"
	"testing"
)

// TestSnapshotJSONRoundTrip folds a registry holding every family kind
// into a fresh one: a byte-identical exposition proves every instrument
// survived the fold.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("jobs_total", "jobs").Add(7)
	r.Gauge("queue_depth", "depth").Set(-3)
	h := r.Histogram("trial_seconds", "durations")
	h.Observe(5)
	h.Observe(1_000_000)
	h.Observe(2_000_000_000)
	r.CountHistogram("batch_size", "sizes").Observe(42)
	r.LabeledGauge("build_info", "build identity",
		Label{Key: "version", Value: "v1.2.3"}, Label{Key: "revision", Value: "abc"}).Set(1)
	r.CounterVec("fallback_total", "fallbacks", "reason").With("faults").Add(2)

	r2 := New()
	if err := r2.Merge(r); err != nil {
		t.Fatal(err)
	}
	var want, have strings.Builder
	if err := r.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if err := r2.WritePrometheus(&have); err != nil {
		t.Fatal(err)
	}
	if want.String() != have.String() {
		t.Errorf("exposition differs after round trip:\nwant:\n%s\nhave:\n%s", want.String(), have.String())
	}
}

// fold merges the registries, in order, into a fresh registry through
// Merge — the path a finished job's registry takes into the daemon's.
func fold(t *testing.T, regs ...*Registry) *Registry {
	t.Helper()
	dst := New()
	for _, r := range regs {
		if err := dst.Merge(r); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// foldedHist folds the registries and returns the snapshot of their
// d_seconds histogram.
func foldedHist(t *testing.T, regs ...*Registry) HistogramSnapshot {
	t.Helper()
	h, ok := fold(t, regs...).LookupHistogram("d_seconds")
	if !ok {
		t.Fatal("d_seconds not folded")
	}
	return h.Snapshot()
}

// occupied counts a snapshot's non-empty buckets.
func occupied(s HistogramSnapshot) int {
	n := 0
	for _, c := range s.Buckets {
		if c != 0 {
			n++
		}
	}
	return n
}

func TestSnapshotMergeEmptyHistograms(t *testing.T) {
	a := New()
	a.Histogram("d_seconds", "")
	b := New()
	b.Histogram("d_seconds", "").Observe(100)

	// empty into occupied
	if hw := foldedHist(t, b, a); hw.Count != 1 || hw.Max != 100 {
		t.Errorf("occupied+empty: count=%d max=%d, want 1, 100", hw.Count, hw.Max)
	}
	// occupied into empty
	if hw := foldedHist(t, a, b); hw.Count != 1 || hw.Max != 100 {
		t.Errorf("empty+occupied: count=%d max=%d, want 1, 100", hw.Count, hw.Max)
	}
	// empty into empty
	if hw := foldedHist(t, a, a); hw.Count != 0 || occupied(hw) != 0 {
		t.Errorf("empty+empty: count=%d, %d buckets occupied", hw.Count, occupied(hw))
	}
}

func TestSnapshotMergeDisjointBuckets(t *testing.T) {
	a := New()
	a.Histogram("d_seconds", "").Observe(2)
	b := New()
	bh := b.Histogram("d_seconds", "")
	bh.Observe(1 << 20)
	bh.Observe(1 << 30)

	hw := foldedHist(t, a, b)
	if hw.Count != 3 {
		t.Errorf("count = %d, want 3", hw.Count)
	}
	if n := occupied(hw); n != 3 {
		t.Errorf("%d buckets occupied, want 3", n)
	}
	// Cross-check against one histogram that saw every observation.
	ref := NewHistogram()
	ref.Observe(2)
	ref.Observe(1 << 20)
	ref.Observe(1 << 30)
	if want := ref.Snapshot(); hw.Sum != want.Sum || hw.Max != want.Max || !reflect.DeepEqual(hw.Buckets, want.Buckets) {
		t.Errorf("fold diverged from direct observation: sum=%d max=%d, want sum=%d max=%d", hw.Sum, hw.Max, want.Sum, want.Max)
	}
}

func TestSnapshotMergeCountersAndVecs(t *testing.T) {
	a := New()
	a.Counter("jobs_total", "").Add(3)
	a.CounterVec("fallback_total", "", "reason").With("forced").Add(1)
	b := New()
	b.Counter("jobs_total", "").Add(4)
	vb := b.CounterVec("fallback_total", "", "reason")
	vb.With("forced").Add(2)
	vb.With("faults").Add(5)

	r := fold(t, a, b)
	if jobs, ok := r.LookupCounter("jobs_total"); !ok || jobs.Value() != 7 {
		t.Errorf("jobs_total folded=%v, want 7", ok)
	}
	fallback := r.families["fallback_total"].childSnapshot()
	if len(fallback) != 2 {
		t.Fatalf("fallback_total = %+v, want 2 children", fallback)
	}
	byValue := map[string]uint64{}
	for _, c := range fallback {
		byValue[c.value] = c.count
	}
	if byValue["forced"] != 3 || byValue["faults"] != 5 {
		t.Errorf("children = %v, want forced=3 faults=5", byValue)
	}
}

func TestSnapshotMergeLabelSetCollision(t *testing.T) {
	a := New()
	a.LabeledGauge("build_info", "", Label{Key: "version", Value: "v1"}).Set(1)
	b := New()
	b.LabeledGauge("build_info", "", Label{Key: "version", Value: "v2"}).Set(1)

	// Colliding constant labels: the receiver's identity sample survives
	// unchanged — summing build_info across versions would be meaningless.
	f := fold(t, a, b).families["build_info"]
	if v := f.gauge.Value(); v != 1 {
		t.Errorf("gauge = %d, want 1", v)
	}
	if len(f.labels) != 1 || f.labels[0].Value != "v1" {
		t.Errorf("labels = %v, want the receiver's", f.labels)
	}

	// Identical labels: still an identity, value stays 1, no doubling.
	r := New()
	for i := 0; i < 2; i++ {
		if err := r.Merge(a); err != nil {
			t.Fatal(err)
		}
	}
	if g := r.LabeledGauge("build_info", "", Label{Key: "version", Value: "v1"}); g.Value() != 1 {
		t.Errorf("identity gauge after merge = %d, want 1", g.Value())
	}
}

func TestSnapshotMergeKindMismatchErrors(t *testing.T) {
	a := New()
	a.Counter("x", "")
	b := New()
	b.Gauge("x", "")
	dst := New()
	if err := dst.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := dst.Merge(b); err == nil {
		t.Error("merging gauge into counter did not error")
	}
	r := New()
	r.Gauge("x", "")
	if err := r.Merge(a); err == nil {
		t.Error("Merge with kind mismatch did not error")
	}
	// A histogram unit or a counter-vec label key clash errors the same way.
	durations, counts := New(), New()
	durations.Histogram("h", "")
	counts.CountHistogram("h", "")
	if err := durations.Merge(counts); err == nil {
		t.Error("merging a count histogram into a duration histogram did not error")
	}
	byReason, byEngine := New(), New()
	byReason.CounterVec("c", "", "reason")
	byEngine.CounterVec("c", "", "engine")
	if err := byReason.Merge(byEngine); err == nil {
		t.Error("merging counter vecs with different label keys did not error")
	}
}

func TestMergeSnapshotRegistersMissingFamilies(t *testing.T) {
	src := New()
	src.Histogram("radiomis_trial_duration_seconds", "trial wall time").Observe(1_000_000)
	src.Counter("radiomis_trials_total", "trials").Add(9)

	dst := New()
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	h, ok := dst.LookupHistogram("radiomis_trial_duration_seconds")
	if !ok || h.Count() != 1 {
		t.Fatalf("histogram not folded: ok=%v", ok)
	}
	c, ok := dst.LookupCounter("radiomis_trials_total")
	if !ok || c.Value() != 9 {
		t.Fatalf("counter not folded: ok=%v", ok)
	}
	// Folding again accumulates.
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	if h.Count() != 2 || c.Value() != 18 {
		t.Errorf("second fold: hist=%d counter=%d, want 2, 18", h.Count(), c.Value())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	r.LabeledGauge("info", "", Label{Key: "path", Value: `C:\tmp "x"` + "\n"}).Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `info{path="C:\\tmp \"x\"\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition = %q, want to contain %q", b.String(), want)
	}
}
