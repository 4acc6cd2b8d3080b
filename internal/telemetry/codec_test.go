package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

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

	snap := r.Snapshot()
	if snap.Schema != SnapshotSchema {
		t.Fatalf("schema = %q, want %q", snap.Schema, SnapshotSchema)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got RegistrySnapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}

	// Fold the decoded snapshot into a fresh registry and compare the
	// resulting exposition: byte-identical output proves every instrument
	// survived the trip.
	r2 := New()
	if err := r2.MergeSnapshot(got); err != nil {
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

func TestSnapshotSparseBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("d_seconds", "")
	h.Observe(3)
	h.Observe(3)
	h.Observe(1 << 40)
	snap := r.Snapshot()
	hw := snap.Families[0].Hist
	if hw == nil {
		t.Fatal("histogram family has no wire form")
	}
	if len(hw.Buckets) != 2 {
		t.Fatalf("sparse buckets = %v, want exactly 2 occupied", hw.Buckets)
	}
	if hw.Buckets[0][0] != 3 || hw.Buckets[0][1] != 2 {
		t.Errorf("bucket 0 = %v, want [3 2]", hw.Buckets[0])
	}
	if hw.Count != 3 || hw.Max != 1<<40 {
		t.Errorf("count=%d max=%d", hw.Count, hw.Max)
	}
}

// TestDecodeSnapshotRejectsBadWire decodes malformed snapshots and checks
// that MergeSnapshot's Validate guard rejects each one before any family
// reaches the registry.
func TestDecodeSnapshotRejectsBadWire(t *testing.T) {
	cases := map[string]string{
		"wrong schema":        `{"schema":"radiomis.telemetry/v0","families":[]}`,
		"unknown kind":        `{"schema":"radiomis.telemetry/v1","families":[{"name":"x","kind":"summary"}]}`,
		"unknown unit":        `{"schema":"radiomis.telemetry/v1","families":[{"name":"x","kind":"histogram","unit":"furlongs"}]}`,
		"empty name":          `{"schema":"radiomis.telemetry/v1","families":[{"name":"","kind":"counter"}]}`,
		"duplicate family":    `{"schema":"radiomis.telemetry/v1","families":[{"name":"x","kind":"counter"},{"name":"x","kind":"counter"}]}`,
		"bucket out of range": `{"schema":"radiomis.telemetry/v1","families":[{"name":"x","kind":"histogram","hist":{"count":1,"sum":1,"max":1,"buckets":[[9999,1]]}}]}`,
	}
	for name, wire := range cases {
		var s RegistrySnapshot
		if err := json.Unmarshal([]byte(wire), &s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := New()
		if err := r.MergeSnapshot(s); err == nil {
			t.Errorf("%s: merged without error", name)
		}
		if n := len(r.Snapshot().Families); n != 0 {
			t.Errorf("%s: rejected snapshot registered %d families", name, n)
		}
	}
}

// fold merges the registries' snapshots, in order, into a fresh registry
// through MergeSnapshot — the path a finished job's registry takes into
// the daemon's — and returns the result's snapshot.
func fold(t *testing.T, regs ...*Registry) RegistrySnapshot {
	t.Helper()
	dst := New()
	for _, r := range regs {
		if err := dst.MergeSnapshot(r.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	return dst.Snapshot()
}

func TestSnapshotMergeEmptyHistograms(t *testing.T) {
	a := New()
	a.Histogram("d_seconds", "")
	b := New()
	b.Histogram("d_seconds", "").Observe(100)

	// empty into occupied
	if hw := fold(t, b, a).Families[0].Hist; hw.Count != 1 || hw.Max != 100 {
		t.Errorf("occupied+empty: count=%d max=%d, want 1, 100", hw.Count, hw.Max)
	}
	// occupied into empty
	if hw := fold(t, a, b).Families[0].Hist; hw.Count != 1 || hw.Max != 100 {
		t.Errorf("empty+occupied: count=%d max=%d, want 1, 100", hw.Count, hw.Max)
	}
	// empty into empty
	if hw := fold(t, a, a).Families[0].Hist; hw.Count != 0 || len(hw.Buckets) != 0 {
		t.Errorf("empty+empty: %+v", hw)
	}
}

func TestSnapshotMergeDisjointBuckets(t *testing.T) {
	a := New()
	a.Histogram("d_seconds", "").Observe(2)
	b := New()
	bh := b.Histogram("d_seconds", "")
	bh.Observe(1 << 20)
	bh.Observe(1 << 30)

	hw := fold(t, a, b).Families[0].Hist
	if hw.Count != 3 {
		t.Errorf("count = %d, want 3", hw.Count)
	}
	if len(hw.Buckets) != 3 {
		t.Errorf("buckets = %v, want 3 occupied", hw.Buckets)
	}
	for i := 1; i < len(hw.Buckets); i++ {
		if hw.Buckets[i-1][0] >= hw.Buckets[i][0] {
			t.Errorf("buckets not in ascending index order: %v", hw.Buckets)
		}
	}
	// Cross-check against one histogram that saw every observation.
	ref := NewHistogram()
	ref.Observe(2)
	ref.Observe(1 << 20)
	ref.Observe(1 << 30)
	if want := ref.wire(); hw.Sum != want.Sum || hw.Max != want.Max {
		t.Errorf("snapshot fold diverged from direct observation: %+v vs %+v", hw, want)
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

	s := fold(t, a, b)
	var jobs, fallback *FamilySnapshot
	for i := range s.Families {
		switch s.Families[i].Name {
		case "jobs_total":
			jobs = &s.Families[i]
		case "fallback_total":
			fallback = &s.Families[i]
		}
	}
	if jobs == nil || jobs.Counter == nil || *jobs.Counter != 7 {
		t.Errorf("jobs_total = %+v, want 7", jobs)
	}
	if fallback == nil || len(fallback.Children) != 2 {
		t.Fatalf("fallback_total = %+v, want 2 children", fallback)
	}
	byValue := map[string]uint64{}
	for _, c := range fallback.Children {
		byValue[c.Value] = c.Count
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
	f := fold(t, a, b).Families[0]
	if f.Gauge == nil || *f.Gauge != 1 {
		t.Errorf("gauge = %v, want 1", f.Gauge)
	}
	if len(f.Labels) != 1 || f.Labels[0].Value != "v1" {
		t.Errorf("labels = %v, want the receiver's", f.Labels)
	}

	// Identical labels: still an identity, value stays 1, no doubling.
	r := New()
	for i := 0; i < 2; i++ {
		if err := r.MergeSnapshot(a.Snapshot()); err != nil {
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
	if err := dst.MergeSnapshot(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := dst.MergeSnapshot(b.Snapshot()); err == nil {
		t.Error("merging gauge into counter did not error")
	}
	r := New()
	r.Gauge("x", "")
	if err := r.MergeSnapshot(a.Snapshot()); err == nil {
		t.Error("MergeSnapshot with kind mismatch did not error")
	}
}

func TestMergeSnapshotRegistersMissingFamilies(t *testing.T) {
	src := New()
	src.Histogram("radiomis_trial_duration_seconds", "trial wall time").Observe(1_000_000)
	src.Counter("radiomis_trials_total", "trials").Add(9)

	dst := New()
	if err := dst.MergeSnapshot(src.Snapshot()); err != nil {
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
	if err := dst.MergeSnapshot(src.Snapshot()); err != nil {
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
