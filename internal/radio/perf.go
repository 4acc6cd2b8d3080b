package radio

import "time"

// This file implements the scheduler's performance-telemetry surface:
// RunPerf, an out-of-band snapshot of where one run's wall-clock time and
// resources went: executed rounds per code path, loop time, hand-off
// waits, and pool effectiveness.
//
// The contract, enforced by perf_test.go:
//
//   - Out-of-band. Perf collection reads clocks and counts buffer events;
//     it never touches the simulation's random streams, scheduling order,
//     or channel discipline, so Results and observer streams are
//     bit-identical with collection on or off.
//   - Free when off. With Config.Perf nil the scheduler pays one nil
//     check per instrumented site and allocates nothing — the engine's
//     steady-state zero-allocation guarantee is unchanged.

// RunPerf accumulates one run's scheduler performance counters. Install a
// *RunPerf on Config.Perf and the scheduler fills it during the run; read
// it after Run returns. The same RunPerf may be reused across consecutive
// runs (bind resets it), which also keeps its Slices buffer
// allocation-free after the first run.
type RunPerf struct {
	// Rounds is the number of scheduler round iterations executed: every
	// round with at least one scheduled event, including rounds where all
	// due nodes only slept or halted. A round whose only awake actions are
	// transmits of runs the scheduler served whole (an unobserved clean
	// run's Env.TransmitRun) has no scheduled event and is not executed.
	Rounds uint64
	// FastRounds and FaultRounds split Rounds by code path: the clean path
	// vs. the fault-injection path.
	FastRounds  uint64
	FaultRounds uint64
	// WallNs is the wall-clock time of the scheduler loop (excluding node
	// goroutine spawn and teardown).
	WallNs int64
	// RoundsPerSec is Rounds divided by the loop wall time.
	RoundsPerSec float64
	// PoolHit reports whether the run executed on a Pool's reused
	// scheduler state (round calendar, bitsets, hand-off cursors) instead
	// of building its own.
	PoolHit bool
	// CSRReused reports whether the CSR adjacency snapshot was served
	// from the pool's one-entry cache instead of rebuilt for this run.
	CSRReused bool
	// BufferGrows counts coordinator-side scratch reallocations during
	// bind (round calendar, transmitter bitset, payload array, hand-off
	// cursors). A warm pool holds this at zero; nonzero on pooled runs
	// means the workload outgrew the pool's buffers.
	BufferGrows int
	// HandoffWaits counts the times the scheduler reached a due node
	// whose next intent batch had not arrived and had to wait for it
	// (yield, then block). Nodes hand batches over only when they start a
	// listen run, halt, or fill a batch, so a run whose nodes run far
	// ahead waits about once per batch, not once per intent; a node
	// listening through a ListenFor stretch waits at most once for it, not
	// once per round listened; and a sender's TransmitRun, two slots of a
	// batch for up to 63 rounds, rarely fills one.
	HandoffWaits uint64

	// SliceEvery, when > 0, samples the round loop into coarse RoundSlices:
	// one slice per SliceEvery executed rounds. It is configuration, not
	// output — set it before the run; reuse across runs preserves it. The
	// sampling sits behind the same Config.Perf nil check as every other
	// perf site, reads the clock once per slice boundary (never per node),
	// and is how the tracing layer attributes engine wall time at
	// round-slice granularity without touching the hot loop.
	SliceEvery uint64
	// Slices holds the sampled round slices of the run, in order. To stay
	// bounded on very long runs the stride doubles once MaxSlices slices
	// accumulate (adjacent slices are coalesced), so the whole run is
	// always covered at the coarsest granularity that fits.
	Slices []RoundSlice
	// LoopStart is the wall-clock instant the scheduler loop began —
	// the base the relative slice timestamps are measured from.
	LoopStart time.Time

	// sliceLeft counts down executed rounds to the next slice boundary.
	sliceLeft uint64
	// sliceStride is the live stride (≥ SliceEvery after coalescing).
	sliceStride uint64
	// cur is the slice being accumulated.
	cur RoundSlice
}

// MaxSlices bounds len(RunPerf.Slices); beyond it the slice stride
// doubles and adjacent slices merge.
const MaxSlices = 256

// RoundSlice is one sampled slice of the scheduler's round loop: Rounds
// executed rounds spanning simulated rounds [FirstRound, LastRound],
// whose wall-clock cost ran from StartNs to EndNs after RunPerf.LoopStart.
// Slices are contiguous in executed rounds but not in simulated rounds
// (the scheduler skips rounds where every node sleeps).
type RoundSlice struct {
	FirstRound uint64 // first simulated round in the slice
	LastRound  uint64 // last simulated round in the slice
	Rounds     uint64 // executed rounds in the slice
	StartNs    int64  // wall-clock slice start, ns since LoopStart
	EndNs      int64  // wall-clock slice end, ns since LoopStart
}

// reset prepares the RunPerf for one run, zeroing all counters and
// reusing the slice buffer. Configuration fields (SliceEvery) survive the
// reset, so a pooled RunPerf keeps sampling across consecutive runs.
func (p *RunPerf) reset() {
	*p = RunPerf{
		SliceEvery:  p.SliceEvery,
		Slices:      p.Slices[:0],
		sliceStride: p.SliceEvery,
		sliceLeft:   p.SliceEvery,
	}
}

// sliceTick accounts one executed round at simulated round r; sealing a
// full slice is the only clock read, so sampling costs one decrement and
// branch per round. Callers gate on sliceStride != 0.
func (p *RunPerf) sliceTick(r uint64) {
	if p.cur.Rounds == 0 {
		p.cur.FirstRound = r
	}
	p.cur.LastRound = r
	p.cur.Rounds++
	p.sliceLeft--
	if p.sliceLeft == 0 {
		p.sealSlice(time.Since(p.LoopStart).Nanoseconds())
	}
}

// sealSlice closes the accumulating slice at endNs and opens the next
// one. Once MaxSlices slices exist, adjacent pairs coalesce and the
// stride doubles, bounding memory on arbitrarily long runs.
func (p *RunPerf) sealSlice(endNs int64) {
	p.cur.EndNs = endNs
	p.Slices = append(p.Slices, p.cur)
	p.cur = RoundSlice{StartNs: endNs}
	if len(p.Slices) >= MaxSlices {
		half := len(p.Slices) / 2
		for i := 0; i < half; i++ {
			a, b := p.Slices[2*i], p.Slices[2*i+1]
			p.Slices[i] = RoundSlice{
				FirstRound: a.FirstRound, LastRound: b.LastRound,
				Rounds:  a.Rounds + b.Rounds,
				StartNs: a.StartNs, EndNs: b.EndNs,
			}
		}
		if len(p.Slices)%2 == 1 {
			p.Slices[half] = p.Slices[len(p.Slices)-1]
			half++
		}
		p.Slices = p.Slices[:half]
		p.sliceStride *= 2
	}
	p.sliceLeft = p.sliceStride
}

// finish seals the run's derived quantities.
func (p *RunPerf) finish(wall time.Duration) {
	if p.cur.Rounds > 0 {
		p.sealSlice(wall.Nanoseconds()) // trailing partial slice
	}
	p.WallNs = wall.Nanoseconds()
	p.Rounds = p.FastRounds + p.FaultRounds
	if secs := wall.Seconds(); secs > 0 {
		p.RoundsPerSec = float64(p.Rounds) / secs
	}
}

// perfGrow counts one scratch reallocation when perf collection is on.
func (s *sched) perfGrow() {
	if s.perf != nil {
		s.perf.BufferGrows++
	}
}
