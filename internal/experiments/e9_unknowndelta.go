package experiments

import (
	"context"
	"fmt"

	"radiomis/internal/graph"
	"radiomis/internal/harness"
	"radiomis/internal/mis"
	"radiomis/internal/rng"
	"radiomis/internal/stats"
	"radiomis/internal/texttable"
)

// E9UnknownDelta reproduces the §1.1 discussion: guessing Δ as 2^(2^i)
// costs an O(log log n) factor in energy and an O(1) factor in rounds
// relative to the known-Δ run, while still producing a valid MIS.
func E9UnknownDelta(ctx context.Context, cfg Config) (*Report, error) {
	ns := sizes(cfg, []int{48}, []int{48, 96, 192})
	t := trials(cfg, 2, 5)

	report := &Report{
		ID:    "E9",
		Title: "§1.1: unknown-Δ guessing overhead",
		Claim: "guessing Δ = 2^(2^i) costs O(log log n)× energy and O(1)× rounds versus the known-Δ run",
		Notes: []string{
			"the round-budget ratio must stay bounded by a small constant (the 2^(2^i) budgets form a dominated series)",
			"the energy ratio should stay within a small factor that grows (at most) with the number of guesses, i.e. log log Δ",
		},
	}

	table := texttable.New("n", "Δ", "guesses", "known maxE", "unknown maxE", "energy ratio", "round budget ratio", "success")
	report.Tables = []*texttable.Table{table}
	for _, n := range ns {
		agg, err := harness.Repeat(ctx, harness.Options{Trials: t, Seed: cfg.Seed, SeedOffset: n * 100},
			func(ctx context.Context, seed uint64) (harness.Metrics, error) {
				g := graph.GNP(n, 10.0/float64(n), rng.New(seed))
				p := mis.ParamsDefault(g.N(), g.MaxDegree())
				known, err := mis.Run("nocd", g, p, mis.RunOpts{Seed: seed, Ctx: ctx})
				if err != nil {
					return nil, fmt.Errorf("known: %w", err)
				}
				unknown, err := mis.Run("unknown-delta", g, p, mis.RunOpts{Seed: seed, Ctx: ctx})
				if err != nil {
					return nil, fmt.Errorf("unknown: %w", err)
				}
				success := 1.0
				if unknown.Check(g) != nil {
					success = 0
				}
				return harness.Metrics{
					"delta":      float64(g.MaxDegree()),
					"guesses":    float64(len(mis.DeltaGuesses(max(g.MaxDegree(), 2)))),
					"roundRatio": float64(mis.UnknownDeltaRoundBudget(p)) / float64(mis.NoCDRoundBudget(p)),
					"knownE":     float64(known.MaxEnergy()),
					"unknownE":   float64(unknown.MaxEnergy()),
					"success":    success,
				}, nil
			})
		if err != nil {
			return nil, fmt.Errorf("experiments: e9 n=%d: %w", n, err)
		}
		knownE, unknownE, successes := agg.Metric("knownE"), agg.Metric("unknownE"), agg.Metric("success")
		// The table shows the last trial's Δ, guess count and round-budget
		// ratio.
		delta := int(agg.Metric("delta")[t-1])
		guessCount := int(agg.Metric("guesses")[t-1])
		roundRatio := agg.Metric("roundRatio")[t-1]
		table.AddRow(n, delta, guessCount,
			stats.Max(knownE), stats.Max(unknownE),
			stats.Ratio(stats.Max(knownE), stats.Max(unknownE)),
			roundRatio, stats.Mean(successes))
		report.AddSample("unknowndelta/known", float64(n), "maxEnergy", knownE)
		report.AddSample("unknowndelta/unknown", float64(n), "maxEnergy", unknownE)
		report.AddSample("unknowndelta/unknown", float64(n), "success", successes)
		report.AddValue("unknowndelta/unknown", float64(n), "roundBudgetRatio", roundRatio)
		report.AddValue("unknowndelta/unknown", float64(n), "guesses", float64(guessCount))
	}

	return report, nil
}
