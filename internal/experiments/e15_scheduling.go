package experiments

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"radiomis/internal/graph"
	"radiomis/internal/harness"
	"radiomis/internal/rng"
	"radiomis/internal/schedule"
	"radiomis/internal/texttable"
)

// E15Scheduling measures the conflict-graph batch scheduler: iterated-MIS
// peeling of G(n,p) conflict graphs across a density sweep, comparing the
// linear-time sequential baseline against radio-layer peeling (the CD
// algorithm simulated per layer).
//
// The batch count is the plan's critical path — a batch executor needs
// exactly that many sequential steps — and iterated MIS keeps it near the
// degeneracy-ordered optimum: for G(n, d/n) the count grows with the
// average degree d, not with n. Every plan is re-validated (partition,
// per-batch independence, maximal peeling) before its numbers are
// recorded, so the metrics only ever describe correct schedules.
//
// Batch-structure metrics (batches, maxBatch, meanBatch) are deterministic
// in the seed and recorded as metric points; planning wall time is
// hardware-dependent and appears in the tables only.
func E15Scheduling(ctx context.Context, cfg Config) (*Report, error) {
	nLinear := 512
	nRadio := 192
	if cfg.Quick {
		nLinear, nRadio = 128, 96
	}
	t := trials(cfg, 3, 10)
	degrees := []float64{2, 4, 8, 16, 32}

	report := &Report{
		ID:    "E15",
		Title: "batch scheduling: iterated-MIS peeling vs conflict density",
		Claim: "iterated MIS partitions a conflict graph into few independent batches: the batch count (critical path) tracks the average conflict degree, not the graph size, and radio-layer peeling matches the sequential baseline's batch structure",
		Notes: []string{
			"batches = plan critical path: everything inside one batch executes concurrently, batches execute in sequence",
			fmt.Sprintf("linear baseline peels n=%d; radio (cd) peeling simulates every layer, so it sweeps n=%d", nLinear, nRadio),
			"planMs columns are wall-clock and informational; the recorded metric points are batch structure only",
		},
	}

	for _, cond := range []struct {
		algo string
		n    int
	}{
		{algo: "linear", n: nLinear},
		{algo: "cd", n: nRadio},
	} {
		cond := cond
		table := texttable.New(
			fmt.Sprintf("avg degree (%s, n=%d)", cond.algo, cond.n),
			"batches", "maxBatch", "meanBatch", "planMs")
		for _, d := range degrees {
			d := d
			// Trials run concurrently, so plan time accumulates atomically.
			var planNs atomic.Int64
			agg, err := harness.Repeat(ctx,
				harness.Options{Trials: t, Seed: rng.Mix(cfg.Seed, uint64(d))},
				func(ctx context.Context, seed uint64) (harness.Metrics, error) {
					p := d / float64(cond.n-1)
					g := graph.GNP(cond.n, p, rng.New(seed))
					start := time.Now()
					plan, err := schedule.Batches(g, schedule.Options{
						Algorithm: cond.algo, Seed: seed, Ctx: ctx,
					})
					if err != nil {
						return nil, err
					}
					planNs.Add(int64(time.Since(start)))
					if err := plan.Validate(g); err != nil {
						return nil, fmt.Errorf("invalid plan (%s, d=%v): %w", cond.algo, d, err)
					}
					s := plan.Stats()
					return harness.Metrics{
						"batches":   float64(s.Batches),
						"maxBatch":  float64(s.MaxBatch),
						"meanBatch": s.MeanBatch,
					}, nil
				})
			if err != nil {
				return nil, fmt.Errorf("experiments: e15 %s d=%v: %w", cond.algo, d, err)
			}
			table.AddRow(d, agg.Mean("batches"), agg.Mean("maxBatch"), agg.Mean("meanBatch"),
				float64(planNs.Load())/float64(time.Millisecond)/float64(t))
			report.AddAggregate("schedule/"+cond.algo, d, agg)
		}
		report.Tables = append(report.Tables, table)
	}
	return report, nil
}
