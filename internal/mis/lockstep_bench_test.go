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
//	lockstep         one 64-lane lockstep batch with fresh scratch, as a
//	                 daemon job builds a new Pool per job
//	lockstep-pooled  the lockstep batch behind a Pool kept across ops
//
// All three return bit-identical results, so trials/s compares engines
// directly. rounds/op (mean rounds per trial) is the drift guard: CI's
// scripts/benchrounds.py requires the variants to agree on it.
func BenchmarkRunMany(b *testing.B) {
	g := graph.Grid2D(32, 32)
	p := ParamsDefault(g.N(), g.MaxDegree())
	for _, variant := range []string{"scalar-pooled", "lockstep", "lockstep-pooled"} {
		b.Run(fmt.Sprintf("%s/grid/n=%d", variant, g.N()), func(b *testing.B) {
			opts := ManyOpts{Seeds: make([]uint64, radio.MaxLanes), Ctx: context.Background(), Engine: EngineLockstep}
			if variant == "scalar-pooled" {
				opts.Engine = EngineScalar
			}
			if variant != "lockstep" {
				pool := radio.NewPool(0)
				defer pool.Close()
				opts.Ctx = radio.WithPool(opts.Ctx, pool)
			}
			var rounds uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := range opts.Seeds {
					opts.Seeds[l] = uint64(i*radio.MaxLanes + l)
				}
				results, err := RunMany("cd", g, p, opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					rounds += res.Rounds
				}
			}
			trials := float64(b.N) * radio.MaxLanes
			b.ReportMetric(float64(rounds)/trials, "rounds/op")
			b.ReportMetric(trials/max(b.Elapsed().Seconds(), 1e-9), "trials/s")
		})
	}
}
