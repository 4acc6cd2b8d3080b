package mis

import (
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

func TestDeltaGuesses(t *testing.T) {
	tests := []struct {
		limit int
		want  []int
	}{
		{limit: 0, want: []int{2}},
		{limit: 2, want: []int{2}},
		{limit: 3, want: []int{2, 3}},
		{limit: 4, want: []int{2, 4}},
		{limit: 10, want: []int{2, 4, 10}},
		{limit: 100, want: []int{2, 4, 16, 100}},
		{limit: 300, want: []int{2, 4, 16, 256, 300}},
		{limit: 70000, want: []int{2, 4, 16, 256, 65536, 70000}},
	}
	for _, tt := range tests {
		got := DeltaGuesses(tt.limit)
		if len(got) != len(tt.want) {
			t.Errorf("DeltaGuesses(%d) = %v, want %v", tt.limit, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("DeltaGuesses(%d) = %v, want %v", tt.limit, got, tt.want)
				break
			}
		}
	}
}

func TestDeltaGuessesDoublyExponentialLength(t *testing.T) {
	// O(log log Δ) attempts: even a huge Δ yields a handful of guesses.
	if got := len(DeltaGuesses(1 << 30)); got > 7 {
		t.Errorf("guess count for 2^30 = %d, want ≤ 7", got)
	}
}

func TestSolveUnknownDeltaFamilies(t *testing.T) {
	for _, name := range []string{"gnp", "cycle", "tree", "star", "cliques"} {
		g := testFamilies(t, 48, 60)[name]
		t.Run(name, func(t *testing.T) {
			p := ParamsDefault(g.N(), g.MaxDegree())
			res, err := Run("unknown-delta", g, p, RunOpts{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Check(g); err != nil {
				t.Fatalf("invalid MIS: %v", err)
			}
		})
	}
}

func TestSolveUnknownDeltaManySeeds(t *testing.T) {
	g := graph.GNP(64, 0.15, rng.New(61)) // Δ well above the first guesses
	p := ParamsDefault(g.N(), g.MaxDegree())
	for seed := uint64(0); seed < 8; seed++ {
		res, err := Run("unknown-delta", g, p, RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestUnknownDeltaRoundOverheadConstant(t *testing.T) {
	// §1.1: the wrapper costs O(1)× rounds versus the known-Δ run.
	g := graph.GNP(64, 0.15, rng.New(62))
	p := ParamsDefault(g.N(), g.MaxDegree())
	known := NoCDRoundBudget(p)
	unknown := UnknownDeltaRoundBudget(p)
	if unknown > 4*known {
		t.Errorf("unknown-Δ budget %d exceeds 4× known-Δ budget %d", unknown, known)
	}
}

func TestUnknownDeltaBudgetRespected(t *testing.T) {
	g := graph.GNP(48, 0.2, rng.New(63))
	p := ParamsDefault(g.N(), g.MaxDegree())
	res, err := Run("unknown-delta", g, p, RunOpts{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > UnknownDeltaRoundBudget(p) {
		t.Errorf("rounds %d exceed budget %d", res.Rounds, UnknownDeltaRoundBudget(p))
	}
}

func TestSolveUnknownDeltaHighDegreeRecovery(t *testing.T) {
	// Workloads whose true Δ far exceeds the early guesses (2, 4, 16):
	// undersized attempts under-provision the backoffs, and any resulting
	// independence violations must be detected in the verification windows
	// and repaired by a later attempt.
	tests := map[string]*graph.Graph{
		"star":   graph.Star(40),
		"clique": graph.Complete(24),
		"dense":  graph.GNP(40, 0.6, rng.New(65)),
	}
	for name, g := range tests {
		t.Run(name, func(t *testing.T) {
			p := ParamsDefault(64, g.MaxDegree())
			for seed := uint64(0); seed < 4; seed++ {
				res, err := Run("unknown-delta", g, p, RunOpts{Seed: seed})
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

func TestUnknownDeltaEnergyOverheadBounded(t *testing.T) {
	// The wrapper's energy should stay within a small multiple (the guess
	// count) of the known-Δ run's energy.
	g := graph.GNP(64, 0.2, rng.New(66))
	p := ParamsDefault(g.N(), g.MaxDegree())
	known, err := Run("nocd", g, p, RunOpts{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	unknown, err := Run("unknown-delta", g, p, RunOpts{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	guesses := uint64(len(DeltaGuesses(g.MaxDegree())))
	if unknown.MaxEnergy() > (guesses+1)*known.MaxEnergy() {
		t.Errorf("unknown-Δ energy %d exceeds (guesses+1)×known %d",
			unknown.MaxEnergy(), (guesses+1)*known.MaxEnergy())
	}
}
