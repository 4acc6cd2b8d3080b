package experiments

import (
	"context"
	"fmt"

	"radiomis/internal/backbone"
	"radiomis/internal/graph"
	"radiomis/internal/harness"
	"radiomis/internal/mis"
	"radiomis/internal/stats"
	"radiomis/internal/texttable"
)

// E12Backbone measures the end-to-end application of §1: the MIS is turned
// into a clusterhead backbone (connected dominating set), scheduled with a
// distance-2 TDMA coloring, and used for collision-free broadcast. The
// table reports the backbone's size and the per-broadcast energy saving
// over always-awake naive flooding — the downstream payoff that justifies
// optimizing MIS construction energy.
func E12Backbone(ctx context.Context, cfg Config) (*Report, error) {
	ns := sizes(cfg, []int{64}, []int{64, 144, 256})
	t := trials(cfg, 2, 5)

	report := &Report{
		ID:    "E12",
		Title: "§1 application: MIS → backbone → collision-free broadcast",
		Claim: "an MIS-derived CDS with a distance-2 TDMA schedule broadcasts collision-free; per-message energy drops by an order of magnitude versus naive flooding",
		Notes: []string{
			"informed must be 1 (every broadcast reaches the whole connected grid)",
			"the saving column is the per-broadcast average-energy ratio flood/backbone",
		},
	}

	table := texttable.New("n", "heads", "backbone", "slots", "bcast rounds",
		"bcast avgE", "flood avgE", "saving", "informed")
	report.Tables = []*texttable.Table{table}
	for _, n := range ns {
		agg, err := harness.Repeat(ctx, harness.Options{Trials: t, Seed: cfg.Seed, SeedOffset: n * 10},
			func(ctx context.Context, seed uint64) (harness.Metrics, error) {
				g := graph.Grid2D(isqrt(n), isqrt(n))
				p := mis.ParamsDefault(g.N(), g.MaxDegree())
				misRun, err := mis.Run("cd", g, p, mis.RunOpts{Seed: seed, Ctx: ctx})
				if err != nil {
					return nil, fmt.Errorf("mis: %w", err)
				}
				if err := misRun.Check(g); err != nil {
					return nil, fmt.Errorf("mis invalid: %w", err)
				}
				b, err := backbone.Build(g, misRun.InMIS)
				if err != nil {
					return nil, fmt.Errorf("build: %w", err)
				}
				c := backbone.ColorBackbone(g, b)
				bc, err := backbone.Broadcast(g, b, c, 0, 1, 0, seed)
				if err != nil {
					return nil, fmt.Errorf("broadcast: %w", err)
				}
				nf, err := backbone.NaiveFlood(g, 0, 1, 0, seed)
				if err != nil {
					return nil, fmt.Errorf("flood: %w", err)
				}
				informed := 0.0
				if bc.AllInformed() {
					informed = 1
				}
				return harness.Metrics{
					"heads":    float64(b.Heads()),
					"members":  float64(b.Size()),
					"slots":    float64(c.Count),
					"informed": informed,
					"rounds":   float64(bc.Rounds),
					"bcastE":   bc.AvgEnergy(),
					"floodE":   nf.AvgEnergy(),
				}, nil
			})
		if err != nil {
			return nil, fmt.Errorf("experiments: e12 n=%d: %w", n, err)
		}
		// These means sum x/t in trial order rather than dividing once
		// (stats.Mean): the committed reference reports pin their rounding.
		mean := func(name string) (m float64) {
			for _, x := range agg.Metric(name) {
				m += x / float64(t)
			}
			return m
		}
		heads, members, slots, informed := mean("heads"), mean("members"), mean("slots"), mean("informed")
		rounds, bcastE, floodE := agg.Metric("rounds"), agg.Metric("bcastE"), agg.Metric("floodE")
		table.AddRow(isqrt(n)*isqrt(n), heads, members, slots,
			stats.Mean(rounds), stats.Mean(bcastE), stats.Mean(floodE),
			stats.Ratio(stats.Mean(bcastE), stats.Mean(floodE)), informed)
		gridN := float64(isqrt(n) * isqrt(n))
		report.AddValue("backbone/grid", gridN, "heads", heads)
		report.AddValue("backbone/grid", gridN, "backboneSize", members)
		report.AddValue("backbone/grid", gridN, "tdmaSlots", slots)
		report.AddValue("backbone/grid", gridN, "informedRate", informed)
		report.AddSample("backbone/grid", gridN, "bcastRounds", rounds)
		report.AddSample("backbone/grid", gridN, "bcastAvgEnergy", bcastE)
		report.AddSample("backbone/grid", gridN, "floodAvgEnergy", floodE)
	}

	return report, nil
}

func isqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}
