package mis

import (
	"context"
	"fmt"
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/radio"
)

// BenchmarkRunMany measures a production lane twin end to end: 64 cd
// trials per op on a 1024-node grid (32×32), the shape of one radiomisd
// solve job {cd, grid, n: 1024, trials: 64}. The variants are
//
//	scalar-pooled    the scalar engine, one trial at a time, behind a Pool
//	lockstep         one 64-lane lockstep batch on fresh scratch, with
//	                 no Pool (a SolveMany call from outside the harness)
//	lockstep-pooled  the lockstep batch behind a Pool kept across ops,
//	                 results copied out by RunMany
//	lockstep-cached  the daemon's shape: each op borrows a Pool from the
//	                 process-wide cache as a harness worker does, and
//	                 RunManyFunc hands every lane's Result to a callback
//	                 in reused buffers; one op runs before the timer to
//	                 warm the cache
//
// All four compute bit-identical results, so trials/s compares engines
// directly. rounds/op (mean rounds per trial) is the drift guard: CI's
// scripts/benchrounds.py requires the variants to agree on it, and
// scripts/benchallocs.py --many holds lockstep-cached to a steady-state
// B/op budget. Timing barely separates the lockstep variants here: the
// benchmark's heap is small, so the garbage a fresh batch leaves costs
// little GC work, unlike in a daemon whose heap holds its job history.
func BenchmarkRunMany(b *testing.B) {
	g := graph.Grid2D(32, 32)
	p := ParamsDefault(g.N(), g.MaxDegree())
	for _, variant := range []string{"scalar-pooled", "lockstep", "lockstep-pooled", "lockstep-cached"} {
		b.Run(fmt.Sprintf("%s/grid/n=%d", variant, g.N()), func(b *testing.B) {
			opts := ManyOpts{Seeds: make([]uint64, radio.MaxLanes), Ctx: context.Background(), Engine: EngineLockstep}
			if variant == "scalar-pooled" {
				opts.Engine = EngineScalar
			}
			if variant == "scalar-pooled" || variant == "lockstep-pooled" {
				pool := radio.NewPool()
				opts.Ctx = radio.WithPool(opts.Ctx, pool)
			}
			var rounds uint64
			op := func(i int) {
				for l := range opts.Seeds {
					opts.Seeds[l] = uint64(i*radio.MaxLanes + l)
				}
				if variant != "lockstep-cached" {
					results, err := RunMany("cd", g, p, opts)
					if err != nil {
						b.Fatal(err)
					}
					for _, res := range results {
						rounds += res.Rounds
					}
					return
				}
				pool := radio.AcquirePool()
				defer pool.Release()
				o := opts
				o.Ctx = radio.WithPool(opts.Ctx, pool)
				err := RunManyFunc("cd", g, p, o, func(_ int, res *Result) error {
					rounds += res.Rounds
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			if variant == "lockstep-cached" {
				op(0)
				rounds = 0
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
			trials := float64(b.N) * radio.MaxLanes
			b.ReportMetric(float64(rounds)/trials, "rounds/op")
			b.ReportMetric(trials/max(b.Elapsed().Seconds(), 1e-9), "trials/s")
		})
	}
}
