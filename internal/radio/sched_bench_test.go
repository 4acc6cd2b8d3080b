package radio

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"radiomis/internal/graph"
)

// benchProgram is the benchmark workload: the awake-action profile of the
// paper's MIS algorithms — phases of decay-style competition (bursts of
// randomized transmissions with halving persistence), a listening check
// per phase, and sleep between phases — without the algorithmic logic, so
// the benchmark isolates engine cost rather than solver cost.
func benchProgram(env *Env) int64 {
	heard := int64(0)
	for phase := 0; phase < 10; phase++ {
		env.Phase("compete")
		for j := uint(0); j < 8; j++ {
			if env.Rand().Int63()&int64(1<<j-1) == 0 {
				env.TransmitBit()
			} else {
				env.Sleep(1)
			}
		}
		env.Phase("check")
		if env.Listen().Kind != Silence {
			heard++
		}
		env.Sleep(uint64(env.Rand().Intn(4) + 1))
	}
	return heard
}

// runAheadBenchProgram is the benchmark's hand-off workload: the awake-action
// profile of the no-CD MIS algorithm, which has no lane twin and so runs
// only on the scalar engine. Each phase is a Send-style backoff — per
// iteration, sleep to a geometric slot, transmit, sleep out the rest — and
// one listen, so nodes run dozens of intents ahead between waits.
func runAheadBenchProgram(env *Env) int64 {
	const slots = 8
	heard := int64(0)
	for phase := 0; phase < 10; phase++ {
		env.Phase("send")
		for i := 0; i < 16; i++ {
			x := 1 + bits.TrailingZeros64(env.Rand().Uint64()|1<<(slots-1))
			env.Sleep(uint64(x - 1))
			env.TransmitBit()
			env.Sleep(uint64(slots - x))
		}
		env.Phase("check")
		if env.Listen().Kind != Silence {
			heard++
		}
	}
	return heard
}

// txRunBenchProgram is runAheadBenchProgram with its backoffs submitted
// as backoff.Send submits them: the slots of ⌊63/slots⌋ iterations drawn
// first, in the same order, and handed over as one TransmitRun. Its
// Results are runAheadBenchProgram's; on the scheduler a sender costs one
// visit per transmission instead of one per Sleep and Transmit.
func txRunBenchProgram(env *Env) int64 {
	const slots, iters = 8, 16
	const per = maxRunSpan / slots
	heard := int64(0)
	for phase := 0; phase < 10; phase++ {
		env.Phase("send")
		for i := 0; i < iters; i += per {
			k := min(per, iters-i)
			var mask uint64
			for it := 0; it < k; it++ {
				x := 1 + bits.TrailingZeros64(env.Rand().Uint64()|1<<(slots-1))
				mask |= 1 << (it*slots + x - 1)
			}
			env.TransmitRun(mask, uint64(k*slots), 1)
		}
		env.Phase("check")
		if env.Listen().Kind != Silence {
			heard++
		}
	}
	return heard
}

// listenBenchProgram is the benchmark's listen-run workload: the awake
// profile of the no-CD algorithm's receivers. Each phase a node either
// sends — a Send-style backoff of 15 iterations over 4 slots — or
// receives, listening through the same 60-round window as one
// Rec-EBackoff-shaped ListenFor and sleeping out the rest once it hears.
// On the scheduler a receiving phase is one hand-off; the reference
// engine expands it into single-round listens.
func listenBenchProgram(env *Env) int64 {
	const slots, iters = 4, 15
	heard := int64(0)
	for phase := 0; phase < 10; phase++ {
		if env.Rand().Intn(2) == 0 {
			env.Phase("send")
			for i := 0; i < iters; i++ {
				x := 1 + bits.TrailingZeros64(env.Rand().Uint64()|1<<(slots-1))
				env.Sleep(uint64(x - 1))
				env.TransmitBit()
				env.Sleep(uint64(slots - x))
			}
			continue
		}
		env.Phase("receive")
		r, m := env.ListenFor(iters * slots)
		if r.Heard() {
			heard++
		}
		env.Sleep(iters*slots - m)
	}
	return heard
}

// BenchmarkRun measures end-to-end trial throughput — complete Run calls
// per second — comparing four engine configurations on five workloads:
// the scheduler's acceptance workload G(n=4096, p=8/n), a smaller control
// at n=1024, and the run-ahead, transmit-run and listen-run workloads of
// the no-CD algorithms on an 8×8 grid (no lane twin, so benchdiff.py
// --lockstep skips them). The configurations are:
//
//	reference  the preserved pre-rework engine (single-slot channel
//	           rendezvous, heap-only scheduling)
//	sched      the round scheduler, standalone (per-run CSR snapshot
//	           and scratch)
//	pooled     the scheduler behind a Pool, as harness batches run it
//	           (buffers and CSR snapshot amortized across trials)
//	perf       the pooled configuration with RunPerf telemetry attached —
//	           its gap to "pooled" is the telemetry overhead the ISSUE 5
//	           acceptance bounds (≤ 3% time/op, no per-round allocations)
//
// All four produce bit-identical Results (sched_parity_test.go,
// perf_parity tests), so the ratios are pure engine speed. The
// deterministic rounds/op metric doubles as a drift guard: CI runs this
// benchmark at -benchtime=1x and any change in rounds/op means simulation
// behavior changed, not just timing; CI also compares the sched/pooled vs
// perf allocs/op (scripts/benchallocs.py) so telemetry can never quietly
// start allocating.
func BenchmarkRun(b *testing.B) {
	type workload struct {
		name    string
		g       *graph.Graph
		program Program
	}
	var works []workload
	for _, n := range []int{1024, 4096} {
		g := graph.GNP(n, 8.0/float64(n), rand.New(rand.NewSource(4096)))
		works = append(works, workload{fmt.Sprintf("gnp/n=%d", n), g, benchProgram})
	}
	works = append(works,
		workload{"runahead/grid/n=64", graph.Grid2D(8, 8), runAheadBenchProgram},
		workload{"txrun/grid/n=64", graph.Grid2D(8, 8), txRunBenchProgram},
		workload{"listen/grid/n=64", graph.Grid2D(8, 8), listenBenchProgram})
	for _, w := range works {
		for _, engine := range []string{"reference", "sched", "pooled", "perf"} {
			b.Run(engine+"/"+w.name, func(b *testing.B) {
				ctx := context.Background()
				if engine == "pooled" || engine == "perf" {
					pool := NewPool()
					ctx = WithPool(ctx, pool)
				}
				var perf *RunPerf
				if engine == "perf" {
					perf = &RunPerf{}
				}
				var rounds uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg := Config{Model: ModelCD, Seed: uint64(i), Ctx: ctx, Perf: perf}
					var (
						res *Result
						err error
					)
					if engine == "reference" {
						res, err = runReference(w.g, cfg, w.program)
					} else {
						res, err = Run(w.g, cfg, w.program)
					}
					if err != nil {
						b.Fatal(err)
					}
					rounds += res.Rounds
				}
				b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
				b.ReportMetric(float64(b.N)/max(b.Elapsed().Seconds(), 1e-9), "trials/s")
			})
		}
	}
}
