package radiomis

import (
	"testing"
)

func TestFacadeGraphConstructors(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{name: "new", g: NewGraph(5), n: 5, m: 0},
		{name: "complete", g: Complete(4), n: 4, m: 6},
		{name: "cycle", g: Cycle(5), n: 5, m: 5},
		{name: "path", g: Path(4), n: 4, m: 3},
		{name: "star", g: Star(4), n: 4, m: 3},
		{name: "grid", g: Grid(2, 3), n: 6, m: 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.n || tt.g.M() != tt.m {
				t.Errorf("n=%d m=%d, want n=%d m=%d", tt.g.N(), tt.g.M(), tt.n, tt.m)
			}
		})
	}
}

func TestFacadeRandomGraphsDeterministic(t *testing.T) {
	a := GNP(100, 0.1, 7)
	b := GNP(100, 0.1, 7)
	if a.M() != b.M() {
		t.Error("GNP not deterministic in seed")
	}
	if tr := RandomTree(50, 3); tr.M() != 49 {
		t.Errorf("tree edges = %d, want 49", tr.M())
	}
	g, pts := UnitDisk(50, 0.3, 4)
	if g.N() != 50 || len(pts) != 50 {
		t.Error("unit disk shape wrong")
	}
}

func TestFacadeSolversEndToEnd(t *testing.T) {
	g := GNP(96, 0.08, 11)
	p := DefaultParams(g.N(), g.MaxDegree())
	for _, name := range []string{"cd", "beep", "nocd", "lowdegree", "naive-cd", "naive-nocd", "unknown-delta"} {
		t.Run(name, func(t *testing.T) {
			res, err := Solve(g, Spec{Algorithm: name, Params: p, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Check(g); err != nil {
				t.Fatalf("invalid MIS: %v", err)
			}
			if res.MaxEnergy() == 0 || res.Rounds == 0 {
				t.Error("suspicious zero energy or rounds")
			}
		})
	}
}

func TestFacadeReferenceAlgorithms(t *testing.T) {
	g := GNP(80, 0.1, 13)
	if err := CheckMIS(g, GreedyMIS(g)); err != nil {
		t.Errorf("greedy: %v", err)
	}
	if err := CheckMIS(g, LubyMIS(g, 5)); err != nil {
		t.Errorf("luby: %v", err)
	}
}

func TestFacadeParams(t *testing.T) {
	d := DefaultParams(1024, 16)
	if d.N != 1024 || d.Delta != 16 {
		t.Error("DefaultParams fields wrong")
	}
	pp := PaperParams(1024, 16)
	if pp.C <= d.C {
		t.Error("PaperParams should be more conservative than defaults")
	}
}

func TestFacadeStatusConstants(t *testing.T) {
	if StatusInMIS == StatusOutMIS || StatusInMIS == StatusUndecided {
		t.Error("status constants collide")
	}
}

func TestFacadeCongestLuby(t *testing.T) {
	g := GNP(120, 0.08, 9)
	res, err := SolveCongestLuby(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(g); err != nil {
		t.Fatalf("invalid MIS: %v", err)
	}
	if res.AvgAwake() <= 0 || res.MaxAwake() == 0 {
		t.Error("awake accounting empty")
	}
}

func TestFacadeBackbonePipeline(t *testing.T) {
	g := Grid(8, 8)
	p := DefaultParams(g.N(), g.MaxDegree())
	res, err := Solve(g, Spec{Algorithm: "cd", Params: p, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBackbone(g, res.InMIS)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Check(g); err != nil {
		t.Fatal(err)
	}
	c := ColorBackbone(g, b)
	if err := c.Check(g); err != nil {
		t.Fatal(err)
	}
	bc, err := Broadcast(g, b, c, 0, 5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bc.AllInformed() {
		t.Error("facade broadcast incomplete")
	}
	nf, err := NaiveFlood(g, 0, 5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !nf.AllInformed() {
		t.Error("facade naive flood incomplete")
	}
}

func TestFacadeElectLeader(t *testing.T) {
	res, err := ElectLeader(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader < 0 || res.Leader >= 40 {
		t.Errorf("leader %d out of range", res.Leader)
	}
}

func TestFacadeElectCoordinator(t *testing.T) {
	g := Grid(6, 6)
	b, err := BuildBackbone(g, GreedyMIS(g))
	if err != nil {
		t.Fatal(err)
	}
	c := ColorBackbone(g, b)
	res, err := ElectCoordinator(g, b, c, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Coordinators()) != 1 {
		t.Errorf("coordinators = %v, want 1", res.Coordinators())
	}
}
