package mis

import (
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

// ablationVariants enumerates every single-toggle ablation.
func ablationVariants() map[string]Ablations {
	return map[string]Ablations{
		"no-commit":          {NoCommit: true},
		"no-early-sleep":     {NoReceiverEarlySleep: true},
		"no-shallow-check":   {NoShallowCheck: true},
		"deep-shallow-check": {DeepShallowCheck: true},
	}
}

func TestAblationsActive(t *testing.T) {
	if (Ablations{}).active() {
		t.Error("zero ablations report active")
	}
	for name, a := range ablationVariants() {
		if !a.active() {
			t.Errorf("%s not active", name)
		}
	}
}

func TestAblationsStillProduceMIS(t *testing.T) {
	// Every ablation preserves correctness — only the costs change.
	g := graph.GNP(96, 0.08, rng.New(70))
	for name, abl := range ablationVariants() {
		t.Run(name, func(t *testing.T) {
			p := ParamsDefault(g.N(), g.MaxDegree())
			p.Ablate = abl
			for seed := uint64(0); seed < 3; seed++ {
				res, err := Run("nocd", g, p, RunOpts{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Check(g); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestAblationContradictionRejected(t *testing.T) {
	p := ParamsDefault(64, 4)
	p.Ablate = Ablations{NoShallowCheck: true, DeepShallowCheck: true}
	if err := p.Validate(); err == nil {
		t.Error("contradictory ablations accepted")
	}
}

func TestAblationDeepShallowCostsMoreEnergy(t *testing.T) {
	// Replacing the O(1)-iteration shallow check with a full deep check
	// makes every undecided node pay Θ(log n · log Δ) per phase (§5.1.2);
	// the average energy must rise noticeably.
	g := graph.GNP(128, 0.06, rng.New(71))
	base := ParamsDefault(g.N(), g.MaxDegree())
	deep := base
	deep.Ablate = Ablations{DeepShallowCheck: true}

	var baseAvg, deepAvg float64
	for seed := uint64(0); seed < 3; seed++ {
		rb, err := Run("nocd", g, base, RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := Run("nocd", g, deep, RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		baseAvg += rb.AvgEnergy()
		deepAvg += rd.AvgEnergy()
	}
	if deepAvg <= baseAvg {
		t.Errorf("deep shallow check avg energy %v not above baseline %v", deepAvg/3, baseAvg/3)
	}
}

func TestAblationNoCommitKeepsWinnersDeciding(t *testing.T) {
	// Without the commit path nodes can only decide via win/lose + checks;
	// the algorithm must still converge within its phase budget on an easy
	// graph.
	g := graph.Cycle(64)
	p := ParamsDefault(64, 2)
	p.Ablate = Ablations{NoCommit: true}
	res, err := Run("nocd", g, p, RunOpts{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(g); err != nil {
		t.Fatal(err)
	}
}

func TestAblationNoShallowCheckStillDecides(t *testing.T) {
	// Dominated nodes must still leave via deep checks in phases they win
	// or commit.
	g := graph.GNP(64, 0.1, rng.New(72))
	p := ParamsDefault(g.N(), g.MaxDegree())
	p.Ablate = Ablations{NoShallowCheck: true}
	res, err := Run("nocd", g, p, RunOpts{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(g); err != nil {
		t.Fatal(err)
	}
}

func TestAblationRoundBudgetsDiffer(t *testing.T) {
	base := ParamsDefault(256, 16)
	deep := base
	deep.Ablate = Ablations{DeepShallowCheck: true}
	if NoCDRoundBudget(deep) <= NoCDRoundBudget(base) {
		t.Error("deep shallow check should lengthen the phase budget")
	}
	noShallow := base
	noShallow.Ablate = Ablations{NoShallowCheck: true}
	if NoCDRoundBudget(noShallow) != NoCDRoundBudget(base) {
		t.Error("removing the shallow check must keep the budget (nodes sleep the segment)")
	}
}
