package experiments

import (
	"context"
	"fmt"

	"radiomis/internal/graph"
	"radiomis/internal/harness"
	"radiomis/internal/mis"
	"radiomis/internal/rng"
	"radiomis/internal/texttable"
)

// E7CommitDegree reproduces Corollary 13: after one call to Competition
// (Algorithm 3), the subgraph induced by committed nodes has maximum degree
// at most κ·log₂ n with high probability — the fact that lets committed
// nodes run LowDegreeMIS with a logarithmic degree estimate.
func E7CommitDegree(ctx context.Context, cfg Config) (*Report, error) {
	t := trials(cfg, 5, 20)
	type workload struct {
		name string
		gen  func(seed uint64) *graph.Graph
		n    int
	}
	n1, n2 := 128, 512
	if cfg.Quick {
		n1, n2 = 64, 128
	}
	workloads := []workload{
		{name: "gnp sparse", n: n2, gen: func(s uint64) *graph.Graph {
			return graph.GNP(n2, 8.0/float64(n2), rng.New(s))
		}},
		{name: "gnp dense", n: n1, gen: func(s uint64) *graph.Graph {
			return graph.GNP(n1, 0.3, rng.New(s))
		}},
		{name: "grid", n: n2, gen: func(s uint64) *graph.Graph {
			side := 1
			for side*side < n2 {
				side++
			}
			return graph.Grid2D(side, side)
		}},
		{name: "prefattach", n: n2, gen: func(s uint64) *graph.Graph {
			return graph.PreferentialAttachment(n2, 4, rng.New(s))
		}},
	}

	report := &Report{
		ID:    "E7",
		Title: "Corollary 13: committed subgraph has degree O(log n)",
		Claim: "after one Competition, committed nodes induce a subgraph of max degree ≤ κ·log n w.h.p. (Lemmas 11–12, Cor 13)",
		Notes: []string{
			"violations counts trials whose committed subgraph exceeded the κ·log₂ n estimate — expected 0",
			"the measured committed-subgraph degree is typically far below the bound (the bound is what the algorithm relies on, not the typical value)",
		},
	}

	table := texttable.New("workload", "n", "Δ", "κ·log₂ n bound", "max committed degree", "committed nodes", "violations")
	for _, w := range workloads {
		agg, err := harness.Repeat(ctx, harness.Options{Trials: t, Seed: cfg.Seed},
			func(ctx context.Context, seed uint64) (harness.Metrics, error) {
				g := w.gen(seed)
				p := mis.ParamsDefault(g.N(), g.MaxDegree())
				deg, committed, err := mis.CommittedSubgraphMaxDegreeContext(ctx, g, p, seed)
				if err != nil {
					return nil, err
				}
				violation := 0.0
				if deg > p.CommitDegree() {
					violation = 1
				}
				return harness.Metrics{
					"delta":     float64(g.MaxDegree()),
					"bound":     float64(p.CommitDegree()),
					"degree":    float64(deg),
					"committed": float64(committed),
					"violation": violation,
				}, nil
			})
		if err != nil {
			return nil, fmt.Errorf("experiments: e7 %s: %w", w.name, err)
		}
		// The table shows the last trial's Δ and bound.
		delta := int(agg.Metric("delta")[t-1])
		bound := int(agg.Metric("bound")[t-1])
		worstDeg, committed := int(agg.Max("degree")), agg.Mean("committed")
		violations := 0
		for _, v := range agg.Metric("violation") {
			violations += int(v)
		}
		// The table shows the committed-node mean truncated to an integer.
		table.AddRow(w.name, w.n, delta, bound, worstDeg, int(committed), violations)
		series := "commit/" + w.name
		report.AddValue(series, float64(w.n), "bound", float64(bound))
		report.AddValue(series, float64(w.n), "maxCommittedDegree", float64(worstDeg))
		report.AddValue(series, float64(w.n), "committedNodesMean", committed)
		report.AddValue(series, float64(w.n), "violations", float64(violations))
	}

	report.Tables = []*texttable.Table{table}
	return report, nil
}
