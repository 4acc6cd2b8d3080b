package mis

import (
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

func TestLowDegreeRoundsFormula(t *testing.T) {
	p := ParamsDefault(1024, 64)
	// P = ⌈3·10⌉ = 30, kx = ⌈5·10⌉ = 50, slots(64) = 6 → 30·2·50·6.
	want := uint64(30 * 2 * 50 * 6)
	if got := LowDegreeRounds(p, 64); got != want {
		t.Errorf("LowDegreeRounds = %d, want %d", got, want)
	}
	// Tiny degree bounds are clamped so an iteration keeps ≥ 2 slots.
	if got := LowDegreeRounds(p, 1); got != uint64(30*2*50*2) {
		t.Errorf("clamped LowDegreeRounds = %d, want %d", got, uint64(30*2*50*2))
	}
}

func TestLowDegreeEffectiveDegree(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 3}, {1, 3}, {2, 3}, {3, 3}, {4, 4}, {100, 100},
	}
	for _, tt := range tests {
		if got := lowDegreeEffectiveDegree(tt.in); got != tt.want {
			t.Errorf("lowDegreeEffectiveDegree(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestSolveLowDegreeAllFamilies(t *testing.T) {
	for name, g := range testFamilies(t, 64, 30) {
		t.Run(name, func(t *testing.T) {
			p := ParamsDefault(g.N(), g.MaxDegree())
			res, err := Run("lowdegree", g, p, RunOpts{Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Check(g); err != nil {
				t.Fatalf("invalid MIS: %v", err)
			}
		})
	}
}

func TestSolveLowDegreeManySeeds(t *testing.T) {
	g := graph.GNP(128, 0.06, rng.New(31))
	p := ParamsDefault(g.N(), g.MaxDegree())
	for seed := uint64(0); seed < 15; seed++ {
		res, err := Run("lowdegree", g, p, RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSolveLowDegreeExactRoundBudget(t *testing.T) {
	// Every node consumes exactly the same fixed budget regardless of its
	// decision path; the run's round count is therefore exactly the
	// budget... unless all nodes finish their last awake action earlier.
	// Assert the budget is respected as an upper bound and that all nodes
	// remained aligned (no error, valid result).
	g := graph.Cycle(32)
	p := ParamsDefault(32, 2)
	res, err := Run("lowdegree", g, p, RunOpts{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > LowDegreeRounds(p, p.Delta) {
		t.Errorf("rounds %d exceed budget %d", res.Rounds, LowDegreeRounds(p, p.Delta))
	}
}

func TestSolveLowDegreeOnCommittedScaleSubgraph(t *testing.T) {
	// The intended use: a low-degree graph (max degree ≈ κ log n). Use a
	// random graph with small constant average degree.
	g := graph.GNP(256, 4.0/256.0, rng.New(32))
	p := ParamsDefault(256, p256Degree(g))
	for seed := uint64(0); seed < 5; seed++ {
		res, err := Run("lowdegree", g, p, RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func p256Degree(g *graph.Graph) int {
	d := g.MaxDegree()
	if d < 1 {
		return 1
	}
	return d
}

func TestSolveLowDegreeEnergyWithinBudget(t *testing.T) {
	g := graph.GNP(256, 0.03, rng.New(33))
	p := ParamsDefault(256, g.MaxDegree())
	res, err := Run("lowdegree", g, p, RunOpts{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Energy can never exceed the round budget, and for most nodes should
	// be far below it (early out-MIS decisions sleep the rest).
	budget := LowDegreeRounds(p, p.Delta)
	if res.MaxEnergy() > budget {
		t.Errorf("max energy %d exceeds round budget %d", res.MaxEnergy(), budget)
	}
	if res.AvgEnergy() >= float64(budget) {
		t.Errorf("avg energy %v not below budget %d", res.AvgEnergy(), budget)
	}
}
