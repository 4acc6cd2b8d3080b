package backbone

import (
	"math"
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/mis"
	"radiomis/internal/rng"
)

// buildOn computes an MIS with the paper's CD algorithm and builds the
// backbone on it.
func buildOn(t *testing.T, g *graph.Graph, seed uint64) *Backbone {
	t.Helper()
	p := mis.ParamsDefault(g.N(), g.MaxDegree())
	res, err := mis.Run("cd", g, p, mis.RunOpts{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(g); err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, res.InMIS)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testGraphs(t *testing.T, n int) map[string]*graph.Graph {
	t.Helper()
	r := rng.New(50)
	ud, _ := graph.UnitDisk(n, math.Sqrt(12.0/(math.Pi*float64(n))), r)
	side := int(math.Round(math.Sqrt(float64(n))))
	return map[string]*graph.Graph{
		"cycle":    graph.Cycle(n),
		"grid":     graph.Grid2D(side, side),
		"gnp":      graph.GNP(n, 10.0/float64(n), r),
		"tree":     graph.RandomTree(n, r),
		"unitdisk": ud,
		"clique":   graph.Complete(min(n, 32)),
		"star":     graph.Star(n),
	}
}

func TestBuildValidAcrossFamilies(t *testing.T) {
	for name, g := range testGraphs(t, 100) {
		t.Run(name, func(t *testing.T) {
			b := buildOn(t, g, 3)
			if err := b.Check(g); err != nil {
				t.Fatalf("invalid backbone: %v", err)
			}
		})
	}
}

func TestBuildRejectsNonMIS(t *testing.T) {
	g := graph.Path(4)
	if _, err := Build(g, []bool{true, true, false, false}); err == nil {
		t.Error("dependent set accepted")
	}
	if _, err := Build(g, []bool{true, false, false, false}); err == nil {
		t.Error("non-maximal set accepted")
	}
}

func TestBuildClusterAssignment(t *testing.T) {
	g := graph.Star(6)
	b, err := Build(g, graph.GreedyMIS(g)) // center is the MIS
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.N(); v++ {
		if b.Cluster[v] != 0 {
			t.Errorf("leaf %d clustered to %d, want center 0", v, b.Cluster[v])
		}
	}
	if b.Size() != 1 {
		t.Errorf("star backbone size %d, want 1 (no connectors needed)", b.Size())
	}
}

func TestBackboneSizeLinearInHeads(t *testing.T) {
	// CDS construction adds ≤ 2 connectors per head-tree edge, so the
	// backbone stays within a small multiple of the MIS size.
	g := graph.GNP(300, 8.0/300, rng.New(51))
	b := buildOn(t, g, 7)
	if b.Size() > 4*b.Heads() {
		t.Errorf("backbone size %d vs %d heads: construction leaking connectors", b.Size(), b.Heads())
	}
}

func TestBuildDisconnectedGraph(t *testing.T) {
	g := graph.DisjointCliques(5, 6)
	b := buildOn(t, g, 9)
	if err := b.Check(g); err != nil {
		t.Fatalf("disconnected backbone invalid: %v", err)
	}
	if b.Heads() != 5 {
		t.Errorf("heads = %d, want one per clique", b.Heads())
	}
}

func TestColoringDistanceTwo(t *testing.T) {
	for name, g := range testGraphs(t, 100) {
		t.Run(name, func(t *testing.T) {
			b := buildOn(t, g, 4)
			c := ColorBackbone(g, b)
			if err := c.Check(g); err != nil {
				t.Fatalf("invalid coloring: %v", err)
			}
			if c.Count == 0 && b.Size() > 0 {
				t.Error("no colors assigned")
			}
			for v := 0; v < g.N(); v++ {
				if b.Member[v] != (c.Color[v] >= 0) {
					t.Fatalf("color membership mismatch at %d", v)
				}
			}
		})
	}
}

func TestBroadcastInformsEveryone(t *testing.T) {
	for name, g := range testGraphs(t, 80) {
		if name == "clique" {
			continue // tested separately below
		}
		t.Run(name, func(t *testing.T) {
			if !connected(g) {
				t.Skip("family instance disconnected")
			}
			b := buildOn(t, g, 5)
			c := ColorBackbone(g, b)
			res, err := Broadcast(g, b, c, 0, 0xbeef, 0, 11)
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllInformed() {
				t.Fatalf("broadcast missed %d nodes", g.N()-graph.SetSize(res.Informed))
			}
		})
	}
}

func TestBroadcastClique(t *testing.T) {
	g := graph.Complete(20)
	b := buildOn(t, g, 6)
	c := ColorBackbone(g, b)
	res, err := Broadcast(g, b, c, 3, 1, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed() {
		t.Fatal("clique broadcast incomplete")
	}
	// One injection + at most one relay: constant rounds.
	if res.Rounds > 10 {
		t.Errorf("clique broadcast took %d rounds", res.Rounds)
	}
}

func TestBroadcastOnlyReachesSourceComponent(t *testing.T) {
	g := graph.DisjointCliques(2, 5)
	b := buildOn(t, g, 7)
	c := ColorBackbone(g, b)
	res, err := Broadcast(g, b, c, 0, 1, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if !res.Informed[v] {
			t.Errorf("source-component node %d uninformed", v)
		}
	}
	for v := 5; v < 10; v++ {
		if res.Informed[v] {
			t.Errorf("other-component node %d informed", v)
		}
	}
}

func TestBroadcastBeatsNaiveFloodOnEnergy(t *testing.T) {
	g := graph.Grid2D(10, 10)
	b := buildOn(t, g, 8)
	c := ColorBackbone(g, b)
	bc, err := Broadcast(g, b, c, 0, 7, 0, 14)
	if err != nil {
		t.Fatal(err)
	}
	if !bc.AllInformed() {
		t.Fatal("backbone broadcast incomplete")
	}
	nf, err := NaiveFlood(g, 0, 7, 0, 14)
	if err != nil {
		t.Fatal(err)
	}
	if !nf.AllInformed() {
		t.Fatal("naive flood incomplete")
	}
	// The naive flood keeps every node awake for its whole duration; the
	// scheduled broadcast lets leaves sleep after reception and members
	// relay once.
	if bc.AvgEnergy() >= nf.AvgEnergy() {
		t.Errorf("backbone avg energy %v not below naive %v", bc.AvgEnergy(), nf.AvgEnergy())
	}
}

func TestBroadcastSourceValidation(t *testing.T) {
	g := graph.Path(3)
	b, err := Build(g, graph.GreedyMIS(g))
	if err != nil {
		t.Fatal(err)
	}
	c := ColorBackbone(g, b)
	if _, err := Broadcast(g, b, c, -1, 1, 0, 1); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := Broadcast(g, b, c, 3, 1, 0, 1); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := NaiveFlood(g, 5, 1, 0, 1); err == nil {
		t.Error("naive flood out-of-range source accepted")
	}
}

func TestBroadcastManySeeds(t *testing.T) {
	g := graph.GNP(100, 0.08, rng.New(52))
	if !connected(g) {
		t.Skip("instance disconnected")
	}
	b := buildOn(t, g, 10)
	c := ColorBackbone(g, b)
	for seed := uint64(0); seed < 10; seed++ {
		res, err := Broadcast(g, b, c, int(seed)%g.N(), seed+1, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed() {
			t.Fatalf("seed %d: broadcast incomplete", seed)
		}
	}
}

func connected(g *graph.Graph) bool {
	if g.N() == 0 {
		return true
	}
	seen := make([]bool, g.N())
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.N()
}

func TestElectCoordinatorSingleComponent(t *testing.T) {
	for name, g := range testGraphs(t, 80) {
		t.Run(name, func(t *testing.T) {
			if !connected(g) {
				t.Skip("instance disconnected")
			}
			b := buildOn(t, g, 20)
			c := ColorBackbone(g, b)
			res, err := ElectCoordinator(g, b, c, 0, 21)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckCoordinators(g, b, res); err != nil {
				t.Fatal(err)
			}
			if len(res.Coordinators()) != 1 {
				t.Fatalf("coordinators = %v, want exactly 1", res.Coordinators())
			}
		})
	}
}

func TestElectCoordinatorPerComponent(t *testing.T) {
	g := graph.DisjointCliques(4, 6)
	b := buildOn(t, g, 22)
	c := ColorBackbone(g, b)
	res, err := ElectCoordinator(g, b, c, 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCoordinators(g, b, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Coordinators()) != 4 {
		t.Fatalf("coordinators = %v, want one per clique", res.Coordinators())
	}
}

func TestElectCoordinatorLeavesSleep(t *testing.T) {
	g := graph.Star(20)
	b, err := Build(g, graph.GreedyMIS(g)) // center is the only member
	if err != nil {
		t.Fatal(err)
	}
	c := ColorBackbone(g, b)
	res, err := ElectCoordinator(g, b, c, 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCoordinators(g, b, res); err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.N(); v++ {
		if res.Energy[v] != 0 {
			t.Errorf("leaf %d spent %d energy; non-members must sleep", v, res.Energy[v])
		}
	}
	if !res.Coordinator[0] {
		t.Error("lone member did not become coordinator")
	}
}

func TestElectCoordinatorDeterministic(t *testing.T) {
	g := graph.Grid2D(8, 8)
	b := buildOn(t, g, 25)
	c := ColorBackbone(g, b)
	a1, err := ElectCoordinator(g, b, c, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ElectCoordinator(g, b, c, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Coordinators()[0] != a2.Coordinators()[0] {
		t.Error("coordinator election not deterministic in seed")
	}
}
