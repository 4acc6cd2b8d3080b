package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"radiomis/internal/trace"
)

// rssWindow is the length of the windows peak_rss_mb takes its median over.
const rssWindow = time.Second

// setupReps is how many times a run sets the workload up; setup_s is the
// median, since one cold set-up alone varies too much to compare.
const setupReps = 5

// tally counts attempted and failed operations and keeps the first failure.
type tally struct {
	attempted, failed int
	firstErr          error
}

// add counts an attempted operation and, when err is not nil, its failure.
func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.fail(err)
	}
}

// fail counts a failed check of an operation already counted.
func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// setUp builds a fresh bench and runs the workload's cold operations on it.
func setUp(w *workload, seed uint64, t *tally) (*bench, error) {
	b, err := newBench(w, seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.setupOps; i++ {
		_, _, err := b.op(trace.SpanContext{}, streamSetup, i)
		t.add(err)
	}
	return b, nil
}

// runUntraced measures the end-to-end metrics: set-up time, then a closed
// loop of operations for d, then verification of the leading operations.
func runUntraced(out io.Writer, w *workload, seed uint64, d time.Duration) (*result, error) {
	var (
		t      tally
		b      *bench
		setups []float64
	)
	for r := 0; r < setupReps; r++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		if b, err = setUp(w, seed, &t); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()
	runtime.GC() // every run starts timing from the same heap state

	var (
		lats     []float64
		verified []*outcome
		units    int
	)
	var rss rssWindows
	resetHWM()
	load0 := readLoad()
	start := time.Now()
	deadline := start.Add(d)
	window := start.Add(rssWindow)
	for i := 0; i < w.verifyOps || time.Now().Before(deadline); i++ {
		if now := time.Now(); !now.Before(window) {
			rss.sample()
			window = now.Add(rssWindow)
		}
		lat, o, err := b.op(trace.SpanContext{}, streamTimed, i)
		t.add(err)
		if err != nil {
			continue
		}
		lats = append(lats, float64(lat)/float64(time.Millisecond))
		units += w.unitsPerOp()
		if i < w.verifyOps {
			verified = append(verified, o)
		}
	}
	wall := time.Since(start)
	load := readLoad().since(load0)
	rss.sample()
	if rss.err != nil {
		return nil, rss.err
	}

	var c counts
	for _, o := range verified {
		if err := b.verify(o, &c); err != nil {
			t.fail(err)
		}
	}
	if t.firstErr != nil {
		fmt.Fprintf(out, "FAIL %v\n", t.firstErr)
	}
	fmt.Fprintf(out, "counts over the first %d timed operations: %s\n", len(verified), &c)
	if len(lats) == 0 {
		return &result{Correct: false, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}, nil
	}
	sort.Float64s(lats)
	fmt.Fprintf(out, "latency over %d operations: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, max %.4f ms\n",
		len(lats), quantile(lats, 0.5), quantile(lats, 0.9), quantile(lats, 0.99), lats[len(lats)-1])
	fmt.Fprintf(out, "set-up times (s): %v\n", setups)
	fmt.Fprintf(out, "timed loop: wall %.3f s, process cpu %.3f s, machine steal %.2f%% of cpu time\n",
		wall.Seconds(), load.cpu.Seconds(), 100*load.stealShare)

	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"throughput_per_s": {float64(units) / wall.Seconds(), "1/s"},
			"p50_ms":           {quantile(lats, 0.5), "ms"},
			"p90_ms":           {quantile(lats, 0.9), "ms"},
			"setup_s":          {median(setups), "s"},
			"peak_rss_mb":      {median(rss.peaks), "MB"},
		},
	}, nil
}

// quantile returns the q-quantile of sorted xs, interpolating linearly
// between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
