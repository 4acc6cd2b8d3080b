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

// residualEdges computes, from a CD run's decision rounds, the number of
// residual-graph edges at the end of each Luby phase: an edge survives
// phase i if both endpoints decided strictly after phase i (Definition 4).
func residualEdges(g *graph.Graph, res *mis.Result, phaseRounds uint64, maxPhases int) []int {
	decisionPhase := make([]int, g.N())
	for v := range decisionPhase {
		if res.Status[v] == mis.StatusUndecided {
			decisionPhase[v] = maxPhases + 1
			continue
		}
		// The engine records a halt one round after the node's last
		// action, so a node deciding at the end of phase i halts at round
		// (i+1)·(B+1); subtract one round before bucketing.
		r := res.DecisionRound[v]
		if r > 0 {
			r--
		}
		decisionPhase[v] = int(r / phaseRounds)
	}
	edges := make([]int, maxPhases)
	for _, e := range g.Edges() {
		// The edge is alive at the end of phase i (0-indexed) iff both
		// endpoints decide in a strictly later phase.
		last := min(decisionPhase[e[0]], decisionPhase[e[1]])
		for i := 0; i < last && i < maxPhases; i++ {
			edges[i]++
		}
	}
	return edges
}

// E3Residual reproduces Lemma 5 / Corollary 6: each Luby phase of
// Algorithm 1 removes at least half the residual edges in expectation, so
// the residual graph is empty after O(log n) phases. It reports, per phase:
// the mean residual edge count of Algorithm 1, the phase-over-phase ratio,
// and the same quantities for the classical sequential Luby reference.
func E3Residual(ctx context.Context, cfg Config) (*Report, error) {
	n := 512
	t := trials(cfg, 8, 30)
	if cfg.Quick {
		n = 128
	}
	const reportPhases = 10

	// Each trial reports the residual edge count after every phase under
	// "algo1/<phase>" and "luby/<phase>", read back below in trial order.
	agg, err := harness.Repeat(ctx, harness.Options{Trials: t, Seed: cfg.Seed},
		func(ctx context.Context, seed uint64) (harness.Metrics, error) {
			r := rng.New(seed)
			g := graph.GNP(n, 8.0/float64(n), r)
			p := mis.ParamsDefault(g.N(), g.MaxDegree())
			res, err := mis.Run("cd", g, p, mis.RunOpts{Seed: seed, Ctx: ctx})
			if err != nil {
				return nil, err
			}
			m := harness.Metrics{"initial": float64(g.M())}
			phaseRounds := uint64(p.RankBits() + 1)
			for i, e := range residualEdges(g, res, phaseRounds, reportPhases) {
				m[fmt.Sprintf("algo1/%d", i)] = float64(e)
			}
			_, lubyStats := graph.LubySequential(g, r)
			for i := 0; i < reportPhases; i++ {
				e := 0
				if i < len(lubyStats) {
					e = lubyStats[i].Edges
				}
				m[fmt.Sprintf("luby/%d", i)] = float64(e)
			}
			return m, nil
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: e3: %w", err)
	}

	table := texttable.New("phase", "algo1 edges (mean)", "algo1 ratio", "luby edges (mean)", "luby ratio")
	prevAlgo := agg.Mean("initial")
	prevLuby := prevAlgo
	var worstRatio float64
	for i := 0; i < reportPhases; i++ {
		ma := agg.Mean(fmt.Sprintf("algo1/%d", i))
		ml := agg.Mean(fmt.Sprintf("luby/%d", i))
		ra := stats.Ratio(prevAlgo, ma)
		rl := stats.Ratio(prevLuby, ml)
		if i < 4 && ra > worstRatio { // early phases carry the signal
			worstRatio = ra
		}
		table.AddRow(i+1, ma, ra, ml, rl)
		prevAlgo, prevLuby = ma, ml
	}

	report := &Report{
		ID:     "E3",
		Title:  "Lemma 5: residual edges halve per Luby phase",
		Claim:  "E[|E_i| given E_{i−1}] ≤ |E_{i−1}|/2 for Algorithm 1's residual graphs (Lemma 5)",
		Tables: []*texttable.Table{table},
		Notes: []string{
			fmt.Sprintf("worst early-phase mean shrink ratio: %.3f (theory: ≤ 0.5 in expectation)", worstRatio),
			"algorithm-1 ratios should track the classical Luby reference (its winners are a superset of local maxima)",
		},
	}
	report.AddSample("residual/initial", 0, "edges", agg.Metric("initial"))
	for i := 0; i < reportPhases; i++ {
		report.AddSample("residual/algo1", float64(i+1), "edges", agg.Metric(fmt.Sprintf("algo1/%d", i)))
		report.AddSample("residual/luby", float64(i+1), "edges", agg.Metric(fmt.Sprintf("luby/%d", i)))
	}
	return report, nil
}
