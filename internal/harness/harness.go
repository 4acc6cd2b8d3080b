// Package harness runs randomized experiments: repeated trials across
// seeds (in parallel), named metric collection, and aggregation into the
// series the benchmark suite tabulates. All entry points take a
// context.Context: cancelling it fails the batch fast — no new trials
// start, in-flight trials receive the cancelled context, and Repeat
// returns the context's error.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"radiomis/internal/obs"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
	"radiomis/internal/stats"
	"radiomis/internal/telemetry"
	"radiomis/internal/trace"
)

// Telemetry metric names Repeat registers when a telemetry.Registry is
// installed on the batch context (telemetry.WithRegistry). Consumers —
// the benchsuite perf report section, the radiomisd /metrics endpoint —
// look histograms up under these names.
const (
	// MetricTrialSeconds is the per-trial wall-clock duration histogram.
	MetricTrialSeconds = "radiomis_trial_duration_seconds"
	// MetricTrialsTotal counts completed trials.
	MetricTrialsTotal = "radiomis_trials_total"
)

// Metrics is one trial's named measurements.
type Metrics map[string]float64

// TrialFunc runs one trial with the given seed. The context is cancelled
// when the batch is abandoned (caller cancellation or another trial's
// failure); trials should pass it down to the simulation so they stop
// promptly.
type TrialFunc func(ctx context.Context, seed uint64) (Metrics, error)

// Aggregate collects metric samples across trials.
type Aggregate struct {
	Trials int
	values map[string][]float64
}

// Metric returns all samples of the named metric in trial order.
func (a *Aggregate) Metric(name string) []float64 {
	return append([]float64(nil), a.values[name]...)
}

// Summary returns descriptive statistics for the named metric.
func (a *Aggregate) Summary(name string) stats.Summary {
	return stats.Summarize(a.values[name])
}

// Mean returns the named metric's mean.
func (a *Aggregate) Mean(name string) float64 { return stats.Mean(a.values[name]) }

// Max returns the named metric's maximum.
func (a *Aggregate) Max(name string) float64 { return stats.Max(a.values[name]) }

// Names returns all metric names, sorted.
func (a *Aggregate) Names() []string {
	names := make([]string, 0, len(a.values))
	for n := range a.values {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Options configures Repeat.
type Options struct {
	// Trials is the number of runs (required, ≥ 1).
	Trials int
	// Seed derives per-trial seeds (trial i uses rng.Mix(Seed, SeedOffset+i)),
	// so experiment results are reproducible.
	Seed uint64
	// SeedOffset shifts the trial-index stream: trial i of this batch is
	// globally trial SeedOffset+i, so Options{Trials: k, Seed,
	// SeedOffset: off} reruns trials [off, off+k) of a larger batch with
	// bit-identical per-trial seeds. Zero (the default) is the historical
	// behavior.
	SeedOffset int
	// Parallelism caps concurrent trials; 0 means GOMAXPROCS.
	Parallelism int
}

// Repeat runs f for each trial seed on a fixed pool of Parallelism worker
// goroutines and aggregates the metrics. The first trial error fails the
// batch fast: remaining trials are cancelled (no new ones start, in-flight
// ones see a cancelled context) and the lowest-indexed observed error is
// returned. Successful batches store results in trial order, so aggregates
// are deterministic regardless of scheduling. Each worker runs its trials
// on one radio.Pool borrowed from the process-wide cache (radio.AcquirePool)
// and installed on the trial context, so engine scratch stays warm across
// trials and across calls.
//
// Each completed trial additionally reports an obs progress event
// ({Stage: "trial", Done, Total}) to any sink installed on ctx with
// obs.ContextWithProgress. If a telemetry.Registry is installed on ctx
// (telemetry.WithRegistry), each completed trial's wall-clock duration is
// observed into the MetricTrialSeconds histogram and MetricTrialsTotal is
// incremented; with no registry the timing path is skipped entirely.
//
// Repeat is RepeatBatches with a group size of 1; callers whose trial
// function can run many seeds per call (mis.RunManyFunc on the lockstep
// engine) use RepeatBatches directly.
func Repeat(ctx context.Context, opts Options, f TrialFunc) (*Aggregate, error) {
	return RepeatBatches(ctx, opts, 1, func(ctx context.Context, _ int, seeds []uint64) ([]Metrics, error) {
		m, err := f(ctx, seeds[0])
		if err != nil {
			return nil, err
		}
		return []Metrics{m}, nil
	})
}

// BatchFunc runs one contiguous group of trials in a single call. seeds[i]
// is the derived seed of global trial offset+i; the function returns one
// Metrics per seed, in seed order. The context carries the worker's
// radio.Pool, borrowed from the process-wide cache for the worker's share
// of the call, and is cancelled when the batch is abandoned.
type BatchFunc func(ctx context.Context, offset int, seeds []uint64) ([]Metrics, error)

// RepeatBatches is Repeat generalized to trial functions that execute
// `group` trials per call — the harness face of the lockstep engine, where
// one mis.RunManyFunc call advances up to 64 trials at once. Trial seeds,
// aggregation order, fail-fast semantics, and worker pooling are identical
// to Repeat's; the last group is ragged when Trials is not a multiple of
// group.
//
// Progress events fire once per completed group, not once per trial —
// Done jumps by the group size — so a lockstep batch does not emit 64
// bursty events per engine pass into /events streams. Telemetry stays
// per-trial: MetricTrialsTotal counts trials, and each trial observes the
// group's mean per-trial duration into MetricTrialSeconds.
func RepeatBatches(ctx context.Context, opts Options, group int, f BatchFunc) (*Aggregate, error) {
	if opts.Trials < 1 {
		return nil, fmt.Errorf("harness: Trials = %d, want ≥ 1", opts.Trials)
	}
	if opts.SeedOffset < 0 {
		return nil, fmt.Errorf("harness: SeedOffset = %d, want ≥ 0", opts.SeedOffset)
	}
	if group < 1 {
		return nil, fmt.Errorf("harness: group = %d, want ≥ 1", group)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	groups := (opts.Trials + group - 1) / group
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > groups {
		par = groups
	}

	// Tracing, like telemetry, is out-of-band and free when absent: one
	// context lookup per Repeat call, one nil check per trial. With a
	// tracer on ctx the whole batch becomes a "harness.repeat" span and
	// every trial (or trial group) a "harness.trial" child, so straggler
	// trials are visible on the trace timeline.
	tracer := trace.FromContext(ctx)
	if tracer != nil {
		var batch *trace.Span
		ctx, batch = tracer.Start(ctx, "harness.repeat",
			trace.A("trials", opts.Trials), trace.A("seed", opts.Seed), trace.A("parallelism", par))
		defer batch.End()
	}

	tctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Telemetry is out-of-band: it never influences seeds, scheduling, or
	// results, and with no registry on ctx both instruments stay nil and
	// the workers skip the clock reads.
	var (
		trialHist  *telemetry.Histogram
		trialCount *telemetry.Counter
	)
	if reg := telemetry.FromContext(ctx); reg != nil {
		trialHist = reg.Histogram(MetricTrialSeconds, "Wall-clock duration of one harness trial.")
		trialCount = reg.Counter(MetricTrialsTotal, "Completed harness trials.")
	}

	var (
		results   = make([]Metrics, opts.Trials)
		mu        sync.Mutex // guards firstErr/firstIdx/completed
		firstErr  error
		firstIdx  int
		completed int
		wg        sync.WaitGroup
		next      = make(chan int)
	)
	// Each worker borrows one radio.Pool from the process-wide cache for
	// its whole share of the batch, so consecutive trials reuse the
	// engine's round buffers, lane result buffers and CSR adjacency
	// snapshot, and the next call's workers find the buffers already
	// grown.
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := radio.AcquirePool()
			defer pool.Release()
			wctx := radio.WithPool(tctx, pool)
			seeds := make([]uint64, 0, group)
			for off := range next {
				if tctx.Err() != nil {
					return // batch abandoned: drop remaining work
				}
				k := min(group, opts.Trials-off)
				seeds = seeds[:0]
				for i := 0; i < k; i++ {
					seeds = append(seeds, rng.Mix(opts.Seed, uint64(opts.SeedOffset+off+i)))
				}
				var start time.Time
				if trialHist != nil {
					start = time.Now()
				}
				fctx := wctx
				var sp *trace.Span
				if tracer != nil {
					fctx, sp = tracer.Start(wctx, "harness.trial",
						trace.A("trial", off), trace.A("trials", k), trace.A("trialSeed", seeds[0]))
				}
				ms, err := f(fctx, off, seeds)
				if err == nil && len(ms) != k {
					err = fmt.Errorf("batch returned %d metrics for %d trials", len(ms), k)
				}
				if err != nil {
					sp.SetAttr("error", err.Error())
					sp.End()
					mu.Lock()
					if firstErr == nil || off < firstIdx {
						firstIdx, firstErr = off, err
					}
					mu.Unlock()
					cancel() // fail fast: stop handing out trials
					return
				}
				sp.End()
				if trialHist != nil {
					per := time.Since(start) / time.Duration(k)
					for i := 0; i < k; i++ {
						trialHist.ObserveDuration(per)
					}
					trialCount.Add(uint64(k))
				}
				copy(results[off:], ms)
				mu.Lock()
				completed += k
				done := completed
				mu.Unlock()
				obs.Report(tctx, obs.ProgressEvent{Stage: "trial", Done: done, Total: opts.Trials})
			}
		}()
	}
feed:
	for off := 0; off < opts.Trials; off += group {
		select {
		case next <- off:
		case <-tctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	if firstErr != nil {
		if group == 1 {
			return nil, fmt.Errorf("harness: trial %d: %w", firstIdx, firstErr)
		}
		// Group errors carry their own in-group trial attribution (e.g.
		// mis.RunManyFunc's "trial %d"), indexed relative to the group's start.
		return nil, fmt.Errorf("harness: trials %d+: %w", firstIdx, firstErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	agg := &Aggregate{Trials: opts.Trials, values: make(map[string][]float64)}
	for _, m := range results {
		for name, v := range m {
			agg.values[name] = append(agg.values[name], v)
		}
	}
	return agg, nil
}

// Point is one x-position of a series (typically a network size) with its
// aggregated trials.
type Point struct {
	X   float64
	Agg *Aggregate
}

// Series is an experiment swept over an x-axis.
type Series []Point

// Sweep runs the experiment builder at every x value. build receives the x
// value and must return the trial function for that size. Cancelling ctx
// stops the sweep at the current position. Each finished position reports
// an obs progress event ({Stage: "sweep", Done, Total, X}). With a tracer
// on ctx every position becomes a "harness.sweep" span enclosing its
// Repeat batch.
func Sweep(ctx context.Context, xs []float64, opts Options, build func(x float64) TrialFunc) (Series, error) {
	series := make(Series, 0, len(xs))
	for i, x := range xs {
		pctx, sp := trace.Start(ctx, "harness.sweep",
			trace.A("x", x), trace.A("point", i), trace.A("points", len(xs)))
		agg, err := Repeat(pctx, opts, build(x))
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			return nil, fmt.Errorf("harness: sweep x=%v: %w", x, err)
		}
		sp.End()
		series = append(series, Point{X: x, Agg: agg})
		obs.Report(ctx, obs.ProgressEvent{Stage: "sweep", Done: i + 1, Total: len(xs), X: x})
	}
	return series, nil
}

// Curve extracts (x, aggregated-metric) pairs from the series, reducing
// each point's samples with reduce ("mean" or "max").
func (s Series) Curve(metric, reduce string) (xs, ys []float64) {
	for _, pt := range s {
		xs = append(xs, pt.X)
		switch reduce {
		case "max":
			ys = append(ys, pt.Agg.Max(metric))
		default:
			ys = append(ys, pt.Agg.Mean(metric))
		}
	}
	return xs, ys
}

// GrowthExponent fits the polylog growth exponent of a metric across the
// series (see stats.GrowthExponent).
func (s Series) GrowthExponent(metric, reduce string) (stats.Fit, error) {
	xs, ys := s.Curve(metric, reduce)
	return stats.GrowthExponent(xs, ys)
}
