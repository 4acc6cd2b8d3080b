package mis

import (
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

func TestCompOutcomeString(t *testing.T) {
	tests := []struct {
		o    CompOutcome
		want string
	}{
		{CompWin, "win"},
		{CompLose, "lose"},
		{CompCommit, "commit"},
		{CompOutcome(7), "outcome(7)"},
	}
	for _, tt := range tests {
		if got := tt.o.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestRunCompetitionOnceIsolatedAlwaysWins(t *testing.T) {
	g := graph.Empty(8)
	out, err := RunCompetitionOnce(g, ParamsDefault(64, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	for v, o := range out {
		if o != CompWin {
			t.Errorf("isolated node %d outcome %v, want win", v, o)
		}
	}
}

func TestRunCompetitionOnceCliqueHasOneWinner(t *testing.T) {
	g := graph.Complete(12)
	p := ParamsDefault(64, 11)
	// A single competition phase on a clique has a real chance of ending
	// with the last survivors colliding (no winner), so assert the
	// exactly-one-winner outcome on seeds where it occurs.
	for seed := uint64(27); seed < 35; seed++ {
		out, err := RunCompetitionOnce(g, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		winners := 0
		for _, o := range out {
			if o == CompWin {
				winners++
			}
		}
		if winners != 1 {
			t.Errorf("seed %d: clique produced %d winners, want 1", seed, winners)
		}
	}
}

func TestRunCompetitionOnceOutcomesValid(t *testing.T) {
	g := graph.GNP(100, 0.08, rng.New(90))
	out, err := RunCompetitionOnce(g, ParamsDefault(g.N(), g.MaxDegree()), 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[CompOutcome]int{}
	for _, o := range out {
		if o != CompWin && o != CompLose && o != CompCommit {
			t.Fatalf("invalid outcome %v", o)
		}
		counts[o]++
	}
	if counts[CompWin] == 0 {
		t.Error("no winners in a 100-node competition")
	}
}

func TestRunCompetitionOnceWinnersNearIndependent(t *testing.T) {
	// Lemma 15: two neighbors both winning is a low-probability event.
	g := graph.GNP(100, 0.08, rng.New(91))
	p := ParamsDefault(g.N(), g.MaxDegree())
	violations := 0
	const trials = 10
	for seed := uint64(0); seed < trials; seed++ {
		out, err := RunCompetitionOnce(g, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		inSet := make([]bool, g.N())
		for v, o := range out {
			inSet[v] = o == CompWin
		}
		if !graph.IsIndependent(g, inSet) {
			violations++
		}
	}
	if violations > 1 {
		t.Errorf("winner sets dependent in %d/%d trials", violations, trials)
	}
}

func TestCommittedSubgraphMaxDegreeWithinBound(t *testing.T) {
	g := graph.GNP(256, 0.05, rng.New(92))
	p := ParamsDefault(g.N(), g.MaxDegree())
	for seed := uint64(0); seed < 5; seed++ {
		deg, committed, err := CommittedSubgraphMaxDegree(g, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		if deg > p.CommitDegree() {
			t.Errorf("seed %d: committed degree %d exceeds bound %d", seed, deg, p.CommitDegree())
		}
		if committed < 0 || committed > g.N() {
			t.Errorf("committed count %d out of range", committed)
		}
	}
}

func TestDecisionRoundsPopulated(t *testing.T) {
	g := graph.GNP(64, 0.1, rng.New(93))
	p := ParamsDefault(g.N(), g.MaxDegree())
	res, err := Run("cd", g, p, RunOpts{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DecisionRound) != g.N() {
		t.Fatalf("DecisionRound length %d, want %d", len(res.DecisionRound), g.N())
	}
	phaseLen := uint64(p.RankBits() + 1)
	for v, r := range res.DecisionRound {
		if res.Status[v] == StatusUndecided {
			continue
		}
		if r == 0 || r > CDRoundBudget(p)+1 {
			t.Errorf("node %d decision round %d outside (0, budget]", v, r)
		}
		_ = phaseLen
	}
}

func TestDecisionRoundsPhaseAligned(t *testing.T) {
	// Every node halts one round after its last action: winners act last
	// at the confirmation round (phase end), losers at the checking round,
	// so every decision round is ≡ 0 mod (B+1) or within the phase.
	g := graph.Cycle(32)
	p := ParamsDefault(32, 2)
	res, err := Run("cd", g, p, RunOpts{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	phaseLen := uint64(p.RankBits() + 1)
	for v, r := range res.DecisionRound {
		if res.Status[v] == StatusUndecided {
			continue
		}
		if r%phaseLen != 0 {
			t.Errorf("node %d decided at round %d, not at a phase boundary (phase length %d)",
				v, r, phaseLen)
		}
	}
}
