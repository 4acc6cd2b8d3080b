package radio

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"radiomis/internal/graph"
)

// BenchmarkRunLockstep measures the lockstep engine's trial throughput on
// the same workload as BenchmarkRun — the benchProgram awake-action
// profile on G(n, 8/n) — with 64 trials per op, one per lane. The lane
// program (benchLaneProgram, lockstep_parity_test.go) is the bit-exact
// twin of benchProgram, so trials/s here divides directly against the
// scalar engines': CI (scripts/benchdiff.py --lockstep) enforces a floor
// over BenchmarkRun/reference from the same run and prints the ratio
// over the pooled scalar engine. rounds/op (mean rounds per trial) is the
// drift guard: any change means simulation behavior changed, not just
// timing.
func BenchmarkRunLockstep(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		g := graph.GNP(n, 8.0/float64(n), rand.New(rand.NewSource(4096)))
		for _, engine := range []string{"lockstep", "lockstep-pooled"} {
			b.Run(fmt.Sprintf("%s/gnp/n=%d", engine, n), func(b *testing.B) {
				ctx := context.Background()
				if engine == "lockstep-pooled" {
					pool := NewPool(0)
					defer pool.Close()
					ctx = WithPool(ctx, pool)
				}
				lp := &benchLaneProgram{}
				seeds := make([]uint64, MaxLanes)
				var rounds uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for l := range seeds {
						seeds[l] = uint64(i*MaxLanes + l)
					}
					err := RunLockstep(g, Config{Model: ModelCD, Ctx: ctx}, lp, seeds, func(_ int, res *Result, lerr error) error {
						rounds += res.Rounds
						return lerr
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				trials := float64(b.N) * MaxLanes
				b.ReportMetric(float64(rounds)/trials, "rounds/op")
				b.ReportMetric(trials/max(b.Elapsed().Seconds(), 1e-9), "trials/s")
			})
		}
	}
}
