package experiments

import (
	"context"
	"fmt"

	"radiomis/internal/lowerbound"
	"radiomis/internal/texttable"
)

// E1LowerBound reproduces Theorem 1: on the n/4-matching + n/2-isolated
// graph, energy budgets below ½·log₂ n force constant failure probability.
// It sweeps the budget b and reports, per network size: the analytic bound
// 1 − e^(−n/4^(b+1)), the measured pair-communication failure rate of
// oblivious b-budget strategies, and the measured MIS failure rate of
// Algorithm 1 truncated to b awake rounds.
func E1LowerBound(ctx context.Context, cfg Config) (*Report, error) {
	ns := sizes(cfg, []int{64, 256}, []int{64, 256, 1024})
	oblTrials := trials(cfg, 40, 200)
	truncTrials := trials(cfg, 20, 80)

	table := texttable.New("n", "budget b", "½·log₂ n", "analytic bound", "oblivious fail", "truncated-CD fail")
	report := &Report{
		ID:    "E1",
		Title: "Theorem 1 lower bound: failure probability vs energy budget",
		Claim: "MIS with success > e^(−1/4) needs ≥ ½·log₂ n energy (Thm 1); failure ≥ 1 − e^(−n/4^(b+1))",
	}
	for _, n := range ns {
		threshold := lowerbound.MinimumEnergy(n)
		budgets := []int{1, 2, int(threshold), 2 * int(threshold), 6 * int(threshold), 30 * int(threshold)}
		for _, b := range budgets {
			obl, err := lowerbound.FailureProbOblivious(lowerbound.Config{
				Ctx: ctx, N: n, Budget: b, Trials: oblTrials, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: e1 oblivious n=%d b=%d: %w", n, b, err)
			}
			trunc, err := lowerbound.FailureProbTruncatedCD(lowerbound.Config{
				Ctx: ctx, N: n, Budget: b, Trials: truncTrials, Seed: cfg.Seed + 1,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: e1 truncated n=%d b=%d: %w", n, b, err)
			}
			table.AddRow(n, b, threshold, lowerbound.AnalyticBound(n, b), obl, trunc)
			series := fmt.Sprintf("lowerbound/n=%d", n)
			report.AddValue(series, float64(b), "analyticBound", lowerbound.AnalyticBound(n, b))
			report.AddValue(series, float64(b), "obliviousFail", obl)
			report.AddValue(series, float64(b), "truncatedCDFail", trunc)
		}
	}
	report.Tables = append(report.Tables, table)
	report.Notes = append(report.Notes,
		"expected shape: both measured failure rates ≈ 1 for b ≤ ½·log₂ n and decay toward 0 well above the threshold",
		"the oblivious column measures the proof's pair-communication failure event; the truncated column measures end-to-end MIS failure",
	)
	return report, nil
}
