package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestPrometheusEmptyHistogram checks the exposition of a histogram that
// was registered but never observed: the family must still render (HELP,
// TYPE, +Inf bucket, count, sum) with all-zero values, because a scraper
// that has seen the series once expects it on every scrape.
func TestPrometheusEmptyHistogram(t *testing.T) {
	reg := New()
	reg.Histogram("idle_seconds", "Never observed.")
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP idle_seconds Never observed.",
		"# TYPE idle_seconds histogram",
		`idle_seconds_bucket{le="+Inf"} 0`,
		"idle_seconds_count 0",
		"idle_seconds_sum 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusCountHistogram checks UnitCount exposition: raw integer
// `le` bounds, unscaled sum, and bucket placement of plain-count samples.
func TestPrometheusCountHistogram(t *testing.T) {
	reg := New()
	h := reg.CountHistogram("batch_size", "Vertices per batch.")
	for _, v := range []uint64{1, 3, 40, 700} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE batch_size histogram",
		`batch_size_bucket{le="1"} 1`,
		`batch_size_bucket{le="5"} 2`,
		`batch_size_bucket{le="50"} 3`,
		`batch_size_bucket{le="1000"} 4`,
		`batch_size_bucket{le="+Inf"} 4`,
		"batch_size_sum 744",
		"batch_size_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestCountHistogramUnitMismatchPanics pins the unit-consistency guard:
// one name cannot be both a duration and a count histogram.
func TestCountHistogramUnitMismatchPanics(t *testing.T) {
	reg := New()
	reg.Histogram("dur_seconds", "duration")
	defer func() {
		if recover() == nil {
			t.Error("re-registering with a different unit did not panic")
		}
	}()
	reg.CountHistogram("dur_seconds", "count")
}

// TestQuantileZeroCountSnapshot checks every quantile of an empty
// histogram (and its snapshot) is 0 rather than NaN or a panic.
func TestQuantileZeroCountSnapshot(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 0.9, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Histogram.Quantile(%v) = %v, want 0", q, got)
		}
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty Snapshot.Quantile(%v) = %v, want 0", q, got)
		}
	}
	if m := s.Mean(); m != 0 {
		t.Errorf("empty snapshot mean = %v, want 0", m)
	}
	// A snapshot whose buckets slice is nil (zero value, never copied from
	// a histogram) must behave the same.
	var zero HistogramSnapshot
	if got := zero.Quantile(0.5); got != 0 {
		t.Errorf("zero-value snapshot Quantile = %v, want 0", got)
	}
}

// TestConcurrentMergeSnapshot races Merge, Observe, and Snapshot on one
// histogram (run under -race). Per-bucket atomicity means a snapshot can
// straddle a merge, but the final quiescent state must hold the exact
// totals.
func TestConcurrentMergeSnapshot(t *testing.T) {
	const (
		workers = 8
		perW    = 1000
	)
	dst := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := NewHistogram()
			for i := 0; i < perW; i++ {
				src.Observe(uint64(w*perW + i))
			}
			dst.Merge(src)
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := dst.Snapshot()
				var inBuckets uint64
				for _, n := range s.Buckets {
					inBuckets += n
				}
				// Straddled snapshots may disagree transiently between the
				// count field and the bucket sum; both must stay bounded by
				// the eventual total.
				if s.Count > workers*perW || inBuckets > workers*perW {
					t.Errorf("snapshot overshoots: count=%d buckets=%d", s.Count, inBuckets)
					return
				}
				_ = s.Quantile(0.99)
			}
		}()
	}
	wg.Wait()
	s := dst.Snapshot()
	if s.Count != workers*perW {
		t.Fatalf("final count = %d, want %d", s.Count, workers*perW)
	}
	var inBuckets uint64
	for _, n := range s.Buckets {
		inBuckets += n
	}
	if inBuckets != workers*perW {
		t.Fatalf("final bucket sum = %d, want %d", inBuckets, workers*perW)
	}
	if max := s.Max; max != workers*perW-1 {
		t.Fatalf("final max = %d, want %d", max, workers*perW-1)
	}
}

// TestConcurrentRegistryMerge folds job-shaped registries into one
// registry from several goroutines while another renders it, as
// radiomisd's job workers and /metrics scrapes do (run under -race). The
// quiescent result must hold the exact totals.
func TestConcurrentRegistryMerge(t *testing.T) {
	const jobs = 8
	dst := New()
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			job := New()
			job.Counter("trials_total", "").Add(3)
			job.CounterVec("fallback_total", "", "reason").With([]string{"faults", "forced"}[w%2]).Inc()
			job.Histogram("trial_seconds", "").Observe(uint64(w))
			if err := dst.Merge(job); err != nil {
				t.Error(err)
			}
		}(w)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			if err := dst.WritePrometheus(&sb); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if c, _ := dst.LookupCounter("trials_total"); c.Value() != 3*jobs {
		t.Errorf("trials_total = %d, want %d", c.Value(), 3*jobs)
	}
	if h, _ := dst.LookupHistogram("trial_seconds"); h.Count() != jobs || h.Max() != jobs-1 {
		t.Errorf("trial_seconds count=%d max=%d, want %d, %d", h.Count(), h.Max(), jobs, jobs-1)
	}
	for _, c := range dst.families["fallback_total"].childSnapshot() {
		if c.count != jobs/2 {
			t.Errorf("fallback_total{reason=%q} = %d, want %d", c.value, c.count, jobs/2)
		}
	}
}
