package mis

import (
	"math"
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// testFamilies returns a representative spread of graph families at size n.
func testFamilies(t *testing.T, n int, seed uint64) map[string]*graph.Graph {
	t.Helper()
	r := rng.New(seed)
	ud, _ := graph.UnitDisk(n, math.Sqrt(10.0/(math.Pi*float64(n))), r)
	side := int(math.Round(math.Sqrt(float64(n))))
	return map[string]*graph.Graph{
		"empty":    graph.Empty(n),
		"clique":   graph.Complete(n),
		"path":     graph.Path(n),
		"cycle":    graph.Cycle(n),
		"star":     graph.Star(n),
		"grid":     graph.Grid2D(side, side),
		"gnp":      graph.GNP(n, 8.0/float64(n), r),
		"tree":     graph.RandomTree(n, r),
		"unitdisk": ud,
		"matching": graph.LowerBoundGraph(n, r),
		"cliques":  graph.DisjointCliques(n/8+1, 8),
	}
}

func TestSolveCDProducesMISAllFamilies(t *testing.T) {
	for name, g := range testFamilies(t, 128, 1) {
		t.Run(name, func(t *testing.T) {
			p := ParamsDefault(g.N(), g.MaxDegree())
			res, err := Run("cd", g, p, RunOpts{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Check(g); err != nil {
				t.Fatalf("invalid MIS: %v", err)
			}
		})
	}
}

func TestSolveCDManySeeds(t *testing.T) {
	r := rng.New(2)
	g := graph.GNP(200, 0.05, r)
	p := ParamsDefault(g.N(), g.MaxDegree())
	for seed := uint64(0); seed < 30; seed++ {
		res, err := Run("cd", g, p, RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSolveCDRoundBudgetRespected(t *testing.T) {
	g := graph.Complete(64)
	p := ParamsDefault(64, 63)
	res, err := Run("cd", g, p, RunOpts{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > CDRoundBudget(p) {
		t.Errorf("rounds = %d exceeds budget %d", res.Rounds, CDRoundBudget(p))
	}
}

func TestSolveCDEnergyLogarithmic(t *testing.T) {
	// Theorem 2: max energy is O(log n). Measure the max energy at two
	// sizes a factor 16 apart; the ratio should track log(n) growth
	// (≈ (log 4096)/(log 256) = 1.5), far below linear growth (16).
	maxEnergyAt := func(n int) float64 {
		r := rng.New(uint64(n))
		g := graph.GNP(n, 8.0/float64(n), r)
		p := ParamsDefault(n, g.MaxDegree())
		var worst uint64
		for seed := uint64(0); seed < 5; seed++ {
			res, err := Run("cd", g, p, RunOpts{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxEnergy() > worst {
				worst = res.MaxEnergy()
			}
		}
		return float64(worst)
	}
	e256 := maxEnergyAt(256)
	e4096 := maxEnergyAt(4096)
	ratio := e4096 / e256
	if ratio > 3 {
		t.Errorf("energy ratio n=4096/n=256 is %v; want ≈ 1.5 (logarithmic growth)", ratio)
	}
	// Sanity on the absolute scale: energy must be ≪ round complexity.
	if e4096 > float64(12*12*4) {
		t.Errorf("max energy at n=4096 is %v; suspiciously large for O(log n)", e4096)
	}
}

func TestSolveCDIsolatedNodesJoin(t *testing.T) {
	res, err := Run("cd", graph.Empty(32), ParamsDefault(32, 0), RunOpts{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v, in := range res.InMIS {
		if !in {
			t.Fatalf("isolated node %d not in MIS (status %v)", v, res.Status[v])
		}
	}
	// An isolated node wins its first phase: energy = B listens + 1
	// confirmation.
	p := ParamsDefault(32, 0)
	want := uint64(p.RankBits() + 1)
	for v, e := range res.Energy {
		if e != want {
			t.Errorf("isolated node %d energy = %d, want %d", v, e, want)
		}
	}
}

func TestSolveCDDeterministic(t *testing.T) {
	g := graph.GNP(100, 0.1, rng.New(4))
	p := ParamsDefault(100, g.MaxDegree())
	a, err := Run("cd", g, p, RunOpts{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("cd", g, p, RunOpts{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Status {
		if a.Status[v] != b.Status[v] || a.Energy[v] != b.Energy[v] {
			t.Fatalf("node %d diverged between identical runs", v)
		}
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds diverged: %d vs %d", a.Rounds, b.Rounds)
	}
}

func TestSolveBeepMatchesCDExactly(t *testing.T) {
	// §3.1: Algorithm 1 uses only the "heard anything" predicate, so under
	// identical randomness the beeping-model run must make identical
	// decisions and spend identical energy.
	g := graph.GNP(150, 0.06, rng.New(5))
	p := ParamsDefault(150, g.MaxDegree())
	for seed := uint64(0); seed < 10; seed++ {
		cd, err := Run("cd", g, p, RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		beep, err := Run("beep", g, p, RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := beep.Check(g); err != nil {
			t.Fatalf("beep run invalid: %v", err)
		}
		for v := range cd.Status {
			if cd.Status[v] != beep.Status[v] {
				t.Fatalf("seed %d node %d: cd=%v beep=%v", seed, v, cd.Status[v], beep.Status[v])
			}
			if cd.Energy[v] != beep.Energy[v] {
				t.Fatalf("seed %d node %d: energy cd=%d beep=%d", seed, v, cd.Energy[v], beep.Energy[v])
			}
		}
		if cd.Rounds != beep.Rounds {
			t.Fatalf("seed %d: rounds cd=%d beep=%d", seed, cd.Rounds, beep.Rounds)
		}
	}
}

func TestSolveCDRejectsBadParams(t *testing.T) {
	g := graph.Path(4)
	if _, err := Run("cd", g, Params{}, RunOpts{Seed: 1}); err == nil {
		t.Error("zero params accepted")
	}
	p := ParamsDefault(4, 2)
	p.Beta = -1
	if _, err := Run("cd", g, p, RunOpts{Seed: 1}); err == nil {
		t.Error("negative Beta accepted")
	}
}

func TestNaiveCDProducesMIS(t *testing.T) {
	for name, g := range testFamilies(t, 96, 6) {
		t.Run(name, func(t *testing.T) {
			p := ParamsDefault(g.N(), g.MaxDegree())
			res, err := Run("naive-cd", g, p, RunOpts{Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Check(g); err != nil {
				t.Fatalf("invalid MIS: %v", err)
			}
		})
	}
}

func TestNaiveCDUsesMoreEnergyOnAdversarialGraph(t *testing.T) {
	// On a long cycle, nodes stay undecided for several phases. A naive
	// node pays ~B+1 awake rounds per undecided phase (it keeps listening
	// after losing) while Algorithm 1's loser sleeps the phase out after
	// its first fruitful round, so the naive worst-case energy must come
	// out strictly higher.
	g := graph.Cycle(512)
	p := ParamsDefault(g.N(), 2)
	var naiveWorst, optWorst uint64
	for seed := uint64(0); seed < 10; seed++ {
		nres, err := Run("naive-cd", g, p, RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ores, err := Run("cd", g, p, RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if nres.MaxEnergy() > naiveWorst {
			naiveWorst = nres.MaxEnergy()
		}
		if ores.MaxEnergy() > optWorst {
			optWorst = ores.MaxEnergy()
		}
	}
	if naiveWorst <= optWorst {
		t.Errorf("naive worst energy %d not above optimized %d", naiveWorst, optWorst)
	}
}

func TestStatusString(t *testing.T) {
	tests := []struct {
		s    Status
		want string
	}{
		{StatusUndecided, "undecided"},
		{StatusInMIS, "in-mis"},
		{StatusOutMIS, "out-mis"},
		{Status(9), "status(9)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("Status(%d).String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}

func TestResultAggregates(t *testing.T) {
	res := &Result{
		Status: []Status{StatusInMIS, StatusOutMIS},
		InMIS:  []bool{true, false},
		Energy: []uint64{4, 6},
	}
	if res.MaxEnergy() != 6 || res.AvgEnergy() != 5 || res.SetSize() != 1 {
		t.Errorf("aggregates wrong: max=%d avg=%v size=%d", res.MaxEnergy(), res.AvgEnergy(), res.SetSize())
	}
}

func TestParamsDerivedQuantities(t *testing.T) {
	p := ParamsDefault(1024, 50)
	if p.Log2N() != 10 {
		t.Errorf("Log2N = %d, want 10", p.Log2N())
	}
	if p.RankBits() != 30 {
		t.Errorf("RankBits = %d, want 30", p.RankBits())
	}
	if p.LubyPhases() != 30 {
		t.Errorf("LubyPhases = %d, want 30", p.LubyPhases())
	}
	if p.BackoffReps() != 50 {
		t.Errorf("BackoffReps = %d, want 50", p.BackoffReps())
	}
	if p.CommitDegree() != 50 {
		t.Errorf("CommitDegree = %d, want 50", p.CommitDegree())
	}
}

func TestParamsPaperConstants(t *testing.T) {
	p := ParamsPaper(100, 10)
	if p.Beta < 4 {
		t.Errorf("paper Beta = %v, want ≥ 4", p.Beta)
	}
	if p.C < 4/math.Log2(64.0/63.0)-1 {
		t.Errorf("paper C = %v too small", p.C)
	}
	if p.Kappa < 5 {
		t.Errorf("paper Kappa = %v, want ≥ 5", p.Kappa)
	}
	// C′ must make (7/8)^{C′ log₂ n} ≤ n⁻⁵.
	if math.Pow(7.0/8.0, p.CPrime) > math.Pow(2, -5) {
		t.Errorf("paper CPrime = %v insufficient for n⁻⁵ backoff failure", p.CPrime)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLog2Ceil(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, tt := range tests {
		if got := log2Ceil(tt.n); got != tt.want {
			t.Errorf("log2Ceil(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestCDAlgorithmIsUnary(t *testing.T) {
	// §1.3: "Our algorithms perform only unary communication" — run
	// Algorithm 1 under the engine's unary-enforcement mode.
	g := graph.GNP(96, 0.08, rng.New(110))
	p := ParamsDefault(g.N(), g.MaxDegree())
	rr, err := radio.Run(g, radio.Config{Model: radio.ModelCD, Seed: 4, UnaryOnly: true}, CDProgram(p))
	if err != nil {
		t.Fatalf("CD algorithm transmitted non-unary payload: %v", err)
	}
	if len(rr.Outputs) != g.N() {
		t.Fatal("bad run")
	}
}

func TestNoCDAlgorithmIsUnary(t *testing.T) {
	g := graph.GNP(48, 0.1, rng.New(111))
	p := ParamsDefault(g.N(), g.MaxDegree())
	rr, err := radio.Run(g, radio.Config{Model: radio.ModelNoCD, Seed: 4, UnaryOnly: true}, NoCDProgram(p))
	if err != nil {
		t.Fatalf("no-CD algorithm transmitted non-unary payload: %v", err)
	}
	if len(rr.Outputs) != g.N() {
		t.Fatal("bad run")
	}
}
