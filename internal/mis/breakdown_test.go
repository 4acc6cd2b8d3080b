package mis

import (
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

func TestBreakdownSumsToTotalEnergy(t *testing.T) {
	// Every awake round belongs to exactly one segment, so the breakdown
	// must account for each node's energy exactly.
	g := graph.GNP(64, 0.1, rng.New(120))
	p := ParamsDefault(g.N(), g.MaxDegree())
	res, bd, err := SolveNoCDBreakdown(g, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(g); err != nil {
		t.Fatal(err)
	}
	for v := range res.Energy {
		sum := bd.Competition[v] + bd.Checks[v] + bd.LowDegree[v]
		if sum != res.Energy[v] {
			t.Fatalf("node %d: breakdown sums to %d, energy is %d (comp=%d checks=%d low=%d)",
				v, sum, res.Energy[v], bd.Competition[v], bd.Checks[v], bd.LowDegree[v])
		}
	}
}

func TestBreakdownMatchesPlainRun(t *testing.T) {
	// Instrumentation must not change behaviour: same seed ⇒ identical
	// statuses and energies as the plain solver.
	g := graph.GNP(48, 0.12, rng.New(121))
	p := ParamsDefault(g.N(), g.MaxDegree())
	plain, err := Run("nocd", g, p, RunOpts{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := SolveNoCDBreakdown(g, p, 9)
	if err != nil {
		t.Fatal(err)
	}
	for v := range plain.Status {
		if plain.Status[v] != inst.Status[v] || plain.Energy[v] != inst.Energy[v] {
			t.Fatalf("node %d diverged under instrumentation", v)
		}
	}
}

func TestBreakdownSegmentProfile(t *testing.T) {
	// On sparse graphs the competition backoffs and the checking
	// announcements are the two major energy sinks (§5.1's two concerns),
	// each well above the LowDegreeMIS share; they account for the vast
	// majority of all energy.
	g := graph.Cycle(96)
	p := ParamsDefault(96, 2)
	_, bd, err := SolveNoCDBreakdown(g, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	comp, checks, low := bd.Totals()
	if comp == 0 || checks == 0 {
		t.Fatal("empty breakdown")
	}
	if comp <= low || checks <= low {
		t.Errorf("lowdegree share %d not below competition %d and checks %d", low, comp, checks)
	}
	if comp+checks < 3*low {
		t.Errorf("competition+checks (%d) should dwarf lowdegree (%d)", comp+checks, low)
	}
	t.Logf("competition=%d checks=%d lowdegree=%d", comp, checks, low)
}

func TestNewEnergyBreakdownShape(t *testing.T) {
	bd := NewEnergyBreakdown(5)
	if len(bd.Competition) != 5 || len(bd.Checks) != 5 || len(bd.LowDegree) != 5 {
		t.Error("collector slices sized wrong")
	}
	c, k, l := bd.Totals()
	if c != 0 || k != 0 || l != 0 {
		t.Error("fresh collector not zero")
	}
}
