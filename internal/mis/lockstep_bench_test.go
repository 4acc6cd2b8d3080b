package mis

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/radio"
)

// BenchmarkRunMany measures the multi-trial entry point end to end at the
// shapes of two radiomisd solve jobs, 64 trials per op. The cd lane twin
// runs on a 1024-node grid (32×32), the shape of {cd, grid, n: 1024,
// trials: 64}, in four variants:
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
// Algorithm 2 (nocd) has no lane twin. It runs on the 64-node grid (8×8)
// of radiobench's nocd-grid workload on the scalar engine, fresh (scalar)
// and behind a Pool (scalar-pooled), so its per-trial time has an in-repo
// command.
//
// The variants of a workload compute bit-identical results, so trials/s
// compares engines directly. rounds/op (mean rounds per trial) is the
// drift guard: CI's scripts/benchrounds.py requires the variants of each
// workload to agree on it, and scripts/benchallocs.py --many holds
// lockstep-cached to a steady-state B/op budget. Timing barely separates
// the lockstep variants here: the benchmark's heap is small, so the
// garbage a fresh batch leaves costs little GC work, unlike in a daemon
// whose heap holds its job history.
func BenchmarkRunMany(b *testing.B) {
	cdGrid, nocdGrid := graph.Grid2D(32, 32), graph.Grid2D(8, 8)
	cases := []struct {
		algo, variant string
		g             *graph.Graph
	}{
		{"cd", "scalar-pooled", cdGrid},
		{"cd", "lockstep", cdGrid},
		{"cd", "lockstep-pooled", cdGrid},
		{"cd", "lockstep-cached", cdGrid},
		{"nocd", "scalar", nocdGrid},
		{"nocd", "scalar-pooled", nocdGrid},
	}
	for _, c := range cases {
		g, variant := c.g, c.variant
		p := ParamsDefault(g.N(), g.MaxDegree())
		name := fmt.Sprintf("%s/grid/n=%d", variant, g.N())
		if c.algo != "cd" {
			name = fmt.Sprintf("%s/%s/grid/n=%d", variant, c.algo, g.N())
		}
		b.Run(name, func(b *testing.B) {
			opts := ManyOpts{Seeds: make([]uint64, radio.MaxLanes), Ctx: context.Background(), Engine: EngineLockstep}
			if strings.HasPrefix(variant, "scalar") {
				opts.Engine = EngineScalar
			}
			if strings.HasSuffix(variant, "-pooled") {
				pool := radio.NewPool()
				opts.Ctx = radio.WithPool(opts.Ctx, pool)
			}
			var rounds uint64
			op := func(i int) {
				for l := range opts.Seeds {
					opts.Seeds[l] = uint64(i*radio.MaxLanes + l)
				}
				if variant != "lockstep-cached" {
					results, err := RunMany(c.algo, g, p, opts)
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
				err := RunManyFunc(c.algo, g, p, o, func(_ int, res *Result) error {
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
