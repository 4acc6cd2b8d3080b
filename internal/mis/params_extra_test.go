package mis

import (
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

func TestPaperParamsCDSmallNetwork(t *testing.T) {
	// The faithful constants are slow but must work; exercise them on a
	// small CD instance. (The no-CD run with paper constants is
	// prohibitively slow for CI — C ≈ 176 Luby phases of Θ(log² n log Δ)
	// rounds each — and is exercised via cmd/radiomis -paper-params.)
	g := graph.GNP(32, 0.15, rng.New(100))
	p := ParamsPaper(g.N(), g.MaxDegree())
	res, err := Run("cd", g, p, RunOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(g); err != nil {
		t.Fatalf("paper-constant run invalid: %v", err)
	}
	// Even with huge C, nodes decide early: energy stays moderate.
	if res.MaxEnergy() > uint64(20*p.RankBits()) {
		t.Errorf("max energy %d suspiciously high for early-terminating nodes", res.MaxEnergy())
	}
}

func TestNOverestimateStillCorrect(t *testing.T) {
	// §1.1: nodes only need n within a polynomial factor; overestimating
	// inflates budgets but preserves correctness.
	g := graph.GNP(50, 0.1, rng.New(101))
	exact := ParamsDefault(g.N(), g.MaxDegree())
	over := ParamsDefault(g.N()*g.N(), g.MaxDegree()) // N = n²
	resExact, err := Run("cd", g, exact, RunOpts{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	resOver, err := Run("cd", g, over, RunOpts{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := resOver.Check(g); err != nil {
		t.Fatalf("overestimated-N run invalid: %v", err)
	}
	// Polynomial overestimate costs only a constant factor in log terms.
	if resOver.MaxEnergy() > 4*resExact.MaxEnergy() {
		t.Errorf("N=n² energy %d more than 4× exact-N energy %d",
			resOver.MaxEnergy(), resExact.MaxEnergy())
	}
}

func TestDeltaOverestimateStillCorrectNoCD(t *testing.T) {
	// Overestimating Δ lengthens backoffs but preserves correctness.
	g := graph.Cycle(48)
	p := ParamsDefault(48, 32) // true Δ = 2, bound 32
	res, err := Run("nocd", g, p, RunOpts{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(g); err != nil {
		t.Fatalf("Δ-overestimated run invalid: %v", err)
	}
}

func TestCommitDegreeTakesMinimum(t *testing.T) {
	small := ParamsDefault(1024, 8)
	if small.CommitDegree() != 8 {
		t.Errorf("CommitDegree with Δ=8 = %d, want 8 (min with Δ)", small.CommitDegree())
	}
	big := ParamsDefault(1024, 500)
	if big.CommitDegree() != 50 {
		t.Errorf("CommitDegree with Δ=500 = %d, want κ·log₂ n = 50", big.CommitDegree())
	}
	zero := ParamsDefault(1024, 0)
	if zero.CommitDegree() != 50 {
		t.Errorf("CommitDegree with Δ=0 = %d, want 50", zero.CommitDegree())
	}
}

func TestShallowRepsAblationAware(t *testing.T) {
	p := ParamsDefault(1024, 16)
	if p.shallowReps() != 1 {
		t.Errorf("shallowReps = %d, want 1", p.shallowReps())
	}
	p.Ablate.DeepShallowCheck = true
	if p.shallowReps() != p.BackoffReps() {
		t.Errorf("deep shallowReps = %d, want %d", p.shallowReps(), p.BackoffReps())
	}
}

func TestValidateTinyNetworks(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		p := ParamsDefault(n, 0)
		if err := p.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		g := graph.Empty(n)
		res, err := Run("cd", g, p, RunOpts{Seed: 1})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := res.Check(g); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestSingleEdgeNetworkAllSolvers(t *testing.T) {
	g := graph.Path(2)
	p := ParamsDefault(16, 1) // generous shared bounds for a tiny graph
	for _, name := range []string{"cd", "beep", "nocd", "lowdegree", "naive-cd", "naive-nocd"} {
		t.Run(name, func(t *testing.T) {
			ok := 0
			for seed := uint64(0); seed < 5; seed++ {
				res, err := Run(name, g, p, RunOpts{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if res.Check(g) == nil {
					ok++
				}
			}
			if ok < 4 {
				t.Errorf("only %d/5 seeds produced a valid MIS on a single edge", ok)
			}
		})
	}
}
