package mis

import (
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

func TestSolveNoCDAllFamilies(t *testing.T) {
	for name, g := range testFamilies(t, 64, 40) {
		t.Run(name, func(t *testing.T) {
			p := ParamsDefault(g.N(), g.MaxDegree())
			res, err := Run("nocd", g, p, RunOpts{Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Check(g); err != nil {
				t.Fatalf("invalid MIS: %v", err)
			}
		})
	}
}

func TestSolveNoCDManySeeds(t *testing.T) {
	g := graph.GNP(96, 0.08, rng.New(41))
	p := ParamsDefault(g.N(), g.MaxDegree())
	for seed := uint64(0); seed < 10; seed++ {
		res, err := Run("nocd", g, p, RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSolveNoCDRoundBudgetRespected(t *testing.T) {
	g := graph.Cycle(48)
	p := ParamsDefault(48, 2)
	res, err := Run("nocd", g, p, RunOpts{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > NoCDRoundBudget(p) {
		t.Errorf("rounds %d exceed budget %d", res.Rounds, NoCDRoundBudget(p))
	}
}

func TestSolveNoCDDeterministic(t *testing.T) {
	g := graph.GNP(64, 0.1, rng.New(42))
	p := ParamsDefault(64, g.MaxDegree())
	a, err := Run("nocd", g, p, RunOpts{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("nocd", g, p, RunOpts{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Status {
		if a.Status[v] != b.Status[v] || a.Energy[v] != b.Energy[v] {
			t.Fatalf("node %d diverged between identical runs", v)
		}
	}
}

func TestSolveNoCDIsolatedNodesJoin(t *testing.T) {
	res, err := Run("nocd", graph.Empty(16), ParamsDefault(16, 0), RunOpts{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for v, in := range res.InMIS {
		if !in {
			t.Fatalf("isolated node %d not in MIS (status %v)", v, res.Status[v])
		}
	}
}

func TestSolveNoCDEnergyFarBelowRounds(t *testing.T) {
	// The whole point of the algorithm: energy ≪ rounds. On a moderate
	// graph the worst-case node energy should be orders of magnitude below
	// the round count.
	g := graph.GNP(128, 0.06, rng.New(43))
	p := ParamsDefault(128, g.MaxDegree())
	res, err := Run("nocd", g, p, RunOpts{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(g); err != nil {
		t.Fatal(err)
	}
	if res.MaxEnergy()*4 > res.Rounds {
		t.Errorf("max energy %d not far below rounds %d", res.MaxEnergy(), res.Rounds)
	}
}

func TestSolveNoCDWithEnergyCap(t *testing.T) {
	// With a generous cap the algorithm must still succeed; the cap's
	// purpose is to bound the tail, not to change typical behaviour.
	g := graph.GNP(64, 0.1, rng.New(44))
	p := ParamsDefault(64, g.MaxDegree())
	noCap, err := Run("nocd", g, p, RunOpts{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p.EnergyCap = noCap.MaxEnergy() * 2
	res, err := Run("nocd", g, p, RunOpts{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(g); err != nil {
		t.Fatalf("capped run failed: %v", err)
	}
	if res.MaxEnergy() > p.EnergyCap+uint64(NoCDRoundBudget(p)/uint64(p.LubyPhases())) {
		t.Errorf("cap not effective: max energy %d, cap %d", res.MaxEnergy(), p.EnergyCap)
	}
}

func TestSolveNoCDTinyEnergyCapStillIndependent(t *testing.T) {
	// An absurdly small cap forces arbitrary decisions; independence must
	// survive (capped nodes choose out-MIS), though maximality may not.
	g := graph.GNP(64, 0.1, rng.New(45))
	p := ParamsDefault(64, g.MaxDegree())
	p.EnergyCap = 10
	res, err := Run("nocd", g, p, RunOpts{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsIndependent(g, res.InMIS) {
		t.Error("independence violated under tiny energy cap")
	}
}

func TestNaiveNoCDProducesMIS(t *testing.T) {
	// The naive baseline is round-expensive; keep n small.
	for _, name := range []string{"path", "gnp", "clique"} {
		g := testFamilies(t, 32, 46)[name]
		t.Run(name, func(t *testing.T) {
			p := ParamsDefault(g.N(), g.MaxDegree())
			res, err := Run("naive-nocd", g, p, RunOpts{Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Check(g); err != nil {
				t.Fatalf("invalid MIS: %v", err)
			}
		})
	}
}

func TestNoCDBeatsNaiveWorstCaseBudget(t *testing.T) {
	// The theorem-level comparison of §1.3: a naive node that stays
	// undecided pays the full B·T_B ≈ Θ(log² n log Δ) per Luby phase, so
	// its worst-case budget over the L phases of the algorithm is
	// L·B·T_B = Θ(log⁴ n). Algorithm 2's observed worst-case energy must
	// sit far below that budget. (Observed naive energy on easy graphs can
	// beat Algorithm 2 at tiny n because naive nodes terminate early;
	// experiment E6 charts that crossover — see EXPERIMENTS.md.)
	g := graph.Cycle(96)
	p := ParamsDefault(g.N(), g.MaxDegree())
	algo2, err := Run("nocd", g, p, RunOpts{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := algo2.Check(g); err != nil {
		t.Fatal(err)
	}
	naiveBudget := uint64(p.LubyPhases()) * uint64(p.RankBits()) *
		uint64(p.BackoffReps()) * 2 // T_B = reps · Slots(2) = reps · 2
	if algo2.MaxEnergy()*4 > naiveBudget {
		t.Errorf("Algorithm 2 worst energy %d not far below naive worst-case budget %d",
			algo2.MaxEnergy(), naiveBudget)
	}
}

func TestNoCDStandingCostLogarithmicPerPhase(t *testing.T) {
	// An MIS member's per-phase cost is Θ(k) = Θ(log n) (two deep-check
	// sends plus one shallow send), not Θ(log² n): total MIS-node energy
	// is bounded by L·(2k+1) plus its single winning phase.
	g := graph.Empty(8) // isolated nodes win immediately and then stand
	p := ParamsDefault(512, 8)
	res, err := Run("nocd", g, p, RunOpts{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	l, k := uint64(p.LubyPhases()), uint64(p.BackoffReps())
	b := uint64(p.RankBits())
	// Winning phase: ≤ B backoffs of energy max(k, k·slots); standing
	// phases: exactly 2k+1 each.
	winPhase := b * k * uint64(8) // generous slot allowance
	budget := l*(2*k+1) + winPhase
	for v, e := range res.Energy {
		if e > budget {
			t.Errorf("MIS node %d energy %d exceeds standing budget %d", v, e, budget)
		}
	}
}

func TestCompetitionStatusesExhaustive(t *testing.T) {
	// Directly exercise Algorithm 3's status logic on a triangle plus an
	// isolated node: among the triangle there is exactly one winner per
	// competition w.h.p., and the isolated node always wins.
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Use a generous shared size bound N ≫ n: the paper allows any
	// polynomial overestimate, and at n = 4 the failure probability
	// guarantee 1 − 1/poly(4) would otherwise be vacuous.
	p := ParamsDefault(64, 2)
	for seed := uint64(0); seed < 10; seed++ {
		res, err := Run("nocd", g, p, RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.InMIS[3] {
			t.Fatalf("seed %d: isolated node lost", seed)
		}
		if res.SetSize() != 2 { // one triangle vertex + the isolated node
			t.Fatalf("seed %d: set size %d, want 2", seed, res.SetSize())
		}
	}
}
