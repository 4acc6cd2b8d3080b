package mis

import (
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/obs"
	"radiomis/internal/rng"
)

// Algorithm 2's energy splits into three segments by the Env.Phase labels
// it sets: competition; the deep and shallow checks, with the MIS
// members' announcements in them; and LowDegreeMIS.
var segmentLabels = map[string][]string{
	"competition": {"competition"},
	"checks":      {"deep-check", "announce", "shallow-check"},
	"lowDegree":   {"low-degree"},
}

// segmentEnergy runs nocd under an obs.PhaseBreakdown and returns the run
// and the breakdown.
func segmentEnergy(t *testing.T, g *graph.Graph, p Params, seed uint64) (*Result, *obs.PhaseBreakdown) {
	t.Helper()
	bd := obs.NewPhaseBreakdown(g.N())
	res, err := Run("nocd", g, p, RunOpts{Seed: seed, Observer: bd})
	if err != nil {
		t.Fatal(err)
	}
	return res, bd
}

// segmentNode sums node v's awake rounds over the labels of one segment.
func segmentNode(bd *obs.PhaseBreakdown, segment string, v int) uint64 {
	var e uint64
	for _, label := range segmentLabels[segment] {
		if ps := bd.Phase(label); ps != nil {
			e += ps.Awake[v]
		}
	}
	return e
}

// segmentTotal sums one segment over all nodes.
func segmentTotal(bd *obs.PhaseBreakdown, segment string, n int) uint64 {
	var e uint64
	for v := 0; v < n; v++ {
		e += segmentNode(bd, segment, v)
	}
	return e
}

func TestBreakdownSumsToTotalEnergy(t *testing.T) {
	// Every awake round belongs to exactly one segment, so the breakdown
	// must account for each node's energy exactly.
	g := graph.GNP(64, 0.1, rng.New(120))
	p := ParamsDefault(g.N(), g.MaxDegree())
	res, bd := segmentEnergy(t, g, p, 5)
	if err := res.Check(g); err != nil {
		t.Fatal(err)
	}
	for v := range res.Energy {
		comp, checks, low := segmentNode(bd, "competition", v), segmentNode(bd, "checks", v), segmentNode(bd, "lowDegree", v)
		if sum := comp + checks + low; sum != res.Energy[v] {
			t.Fatalf("node %d: breakdown sums to %d, energy is %d (comp=%d checks=%d low=%d)",
				v, sum, res.Energy[v], comp, checks, low)
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
	inst, _ := segmentEnergy(t, g, p, 9)
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
	_, bd := segmentEnergy(t, g, p, 3)
	comp, checks, low := segmentTotal(bd, "competition", 96), segmentTotal(bd, "checks", 96), segmentTotal(bd, "lowDegree", 96)
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
	// A fresh breakdown holds no segment and no energy; after a run every
	// label Algorithm 2 set is one of the three segments', with one entry
	// per node.
	bd := obs.NewPhaseBreakdown(5)
	if len(bd.Phases()) != 0 || segmentTotal(bd, "competition", 5)+segmentTotal(bd, "checks", 5)+segmentTotal(bd, "lowDegree", 5) != 0 {
		t.Error("fresh breakdown not empty")
	}
	g := graph.Cycle(24)
	_, bd = segmentEnergy(t, g, ParamsDefault(24, 2), 4)
	known := map[string]bool{}
	for _, labels := range segmentLabels {
		for _, label := range labels {
			known[label] = true
		}
	}
	for _, ps := range bd.Phases() {
		if !known[ps.Name] {
			t.Errorf("label %q belongs to no segment", ps.Name)
		}
		if len(ps.Awake) != g.N() {
			t.Errorf("label %q has %d node entries, want %d", ps.Name, len(ps.Awake), g.N())
		}
	}
}
