package radiomis_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"radiomis"
	"radiomis/internal/mis"
)

// TestSolveMatchesFacades pins the single-trial facade contract: at every
// algorithm name Solve is bit-for-bit the registry's mis.Run with the
// same (graph, params, seed), and a one-seed SolveMany agrees with it.
func TestSolveMatchesFacades(t *testing.T) {
	g := radiomis.GNP(96, 6.0/96, 11)
	p := radiomis.DefaultParams(g.N(), g.MaxDegree())
	for _, algo := range []string{"cd", "beep", "nocd", "lowdegree", "naive-cd", "naive-nocd", "unknown-delta"} {
		t.Run(algo, func(t *testing.T) {
			want, err := mis.Run(algo, g, p, mis.RunOpts{Seed: 42})
			if err != nil {
				t.Fatalf("mis.Run: %v", err)
			}
			got, err := radiomis.Solve(g, radiomis.Spec{Algorithm: algo, Params: p, Seed: 42})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Solve(%q) diverges from mis.Run at the same seed", algo)
			}
			many, err := radiomis.SolveMany(g, radiomis.ManySpec{
				Spec:  radiomis.Spec{Algorithm: algo, Params: p},
				Seeds: []uint64{42},
			})
			if err != nil {
				t.Fatalf("SolveMany: %v", err)
			}
			if len(many) != 1 || !reflect.DeepEqual(many[0], got) {
				t.Errorf("one-seed SolveMany(%q) diverges from Solve", algo)
			}
			if err := got.Check(g); err != nil {
				t.Errorf("Check: %v", err)
			}
		})
	}
}

// TestSolveManyMatchesSolve pins the batch-API contract at the facade:
// SolveMany over TrialSeed-derived seeds returns, trial for trial, the
// bit-identical result of single-trial Solve calls — on both engines —
// and LockstepCapable agrees with the per-algorithm capability flags.
func TestSolveManyMatchesSolve(t *testing.T) {
	g := radiomis.GNP(96, 6.0/96, 11)
	p := radiomis.DefaultParams(g.N(), g.MaxDegree())
	seeds := make([]uint64, 67) // crosses the 64-lane group boundary
	for i := range seeds {
		seeds[i] = radiomis.TrialSeed(42, uint64(i))
	}
	for _, algo := range []string{"cd", "nocd"} { // lockstep-capable and not
		for _, engine := range []string{radiomis.EngineAuto, radiomis.EngineScalar} {
			results, err := radiomis.SolveMany(g, radiomis.ManySpec{
				Spec:   radiomis.Spec{Algorithm: algo, Params: p},
				Seeds:  seeds,
				Engine: engine,
			})
			if err != nil {
				t.Fatalf("SolveMany(%s, %q): %v", algo, engine, err)
			}
			if len(results) != len(seeds) {
				t.Fatalf("SolveMany(%s, %q): %d results, want %d", algo, engine, len(results), len(seeds))
			}
			for _, i := range []int{0, 63, 64, 66} {
				want, err := radiomis.Solve(g, radiomis.Spec{Algorithm: algo, Params: p, Seed: seeds[i]})
				if err != nil {
					t.Fatalf("Solve: %v", err)
				}
				if !reflect.DeepEqual(results[i], want) {
					t.Errorf("SolveMany(%s, %q) trial %d diverges from Solve at the same seed", algo, engine, i)
				}
			}
		}
	}
	if !radiomis.LockstepCapable("cd") || radiomis.LockstepCapable("nocd") {
		t.Error("LockstepCapable: want cd capable, nocd not")
	}
	if _, err := radiomis.SolveMany(g, radiomis.ManySpec{
		Spec: radiomis.Spec{Algorithm: "nocd", Params: p}, Seeds: seeds[:1], Engine: radiomis.EngineLockstep,
	}); err == nil {
		t.Error("forced lockstep on a lane-less algorithm succeeded")
	}
}

// TestSolveUnknownAlgorithm checks the discovery affordance: the error for
// a bad name lists every registered algorithm.
func TestSolveUnknownAlgorithm(t *testing.T) {
	g := radiomis.Complete(4)
	p := radiomis.DefaultParams(4, 3)
	_, err := radiomis.Solve(g, radiomis.Spec{Algorithm: "quantum", Params: p})
	if err == nil {
		t.Fatal("Solve accepted unknown algorithm")
	}
	for _, name := range radiomis.Algorithms() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention registered algorithm %q", err, name)
		}
	}
}

// TestSolveSpecKnobs exercises the optional Spec fields: a cancelled
// context aborts, a fault profile changes the run and populates fault
// stats, and the registry listing matches the algorithm infos.
func TestSolveSpecKnobs(t *testing.T) {
	g := radiomis.GNP(64, 6.0/64, 3)
	p := radiomis.DefaultParams(g.N(), g.MaxDegree())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := radiomis.Solve(g, radiomis.Spec{Algorithm: "cd", Params: p, Ctx: ctx}); err == nil {
		t.Error("Solve with cancelled context succeeded")
	}

	faulty, err := radiomis.Solve(g, radiomis.Spec{
		Algorithm: "cd", Params: p, Seed: 7,
		Faults: radiomis.FaultProfile{Loss: 0.2},
	})
	if err != nil {
		t.Fatalf("faulty Solve: %v", err)
	}
	if faulty.Faults == nil || faulty.Faults.Lost == 0 {
		t.Error("fault profile produced no loss events")
	}

	infos := radiomis.AlgorithmInfos()
	names := radiomis.Algorithms()
	if len(infos) != len(names) {
		t.Fatalf("AlgorithmInfos has %d entries, Algorithms %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("infos[%d].Name = %q, want %q", i, info.Name, names[i])
		}
		if info.Model == "" || info.Description == "" {
			t.Errorf("algorithm %q missing model or description", info.Name)
		}
	}
	if len(radiomis.ParamKnobs()) == 0 {
		t.Error("ParamKnobs is empty")
	}
}
