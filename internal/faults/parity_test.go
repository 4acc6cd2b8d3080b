// Zero-fault parity property tests: the empty faults.Profile must be
// indistinguishable — result-for-result and byte-for-byte in observability
// output — from a run configured with no faults at all. This is the
// subsystem's core safety contract: wiring faults into the engine must not
// perturb clean reproductions of the paper's measurements.
package faults_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/mis"
	"radiomis/internal/obs"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// TestZeroProfileMatchesCleanSolvers checks, for every radio algorithm ×
// family × seed, that SolveWithFaults under the zero profile returns a
// Result deeply equal to a Run with no fault profile at all — same
// statuses, energies, rounds, and no fault bookkeeping.
func TestZeroProfileMatchesCleanSolvers(t *testing.T) {
	ctx := context.Background()
	families := []graph.Family{graph.FamilyGNP, graph.FamilyGrid, graph.FamilyTree}
	for _, algo := range []string{"cd", "beep", "nocd", "lowdegree", "naive-cd", "naive-nocd", "unknown-delta"} {
		for _, fam := range families {
			for seed := uint64(1); seed <= 2; seed++ {
				g := graph.Generate(fam, 64, rng.New(seed))
				p := mis.ParamsDefault(g.N(), g.MaxDegree())
				want, err := mis.Run(algo, g, p, mis.RunOpts{Seed: seed, Ctx: ctx})
				if err != nil {
					t.Fatalf("%s/%s/%d clean: %v", algo, fam, seed, err)
				}
				got, err := mis.SolveWithFaults(ctx, algo, g, p, seed, faults.Profile{})
				if err != nil {
					t.Fatalf("%s/%s/%d zero-profile: %v", algo, fam, seed, err)
				}
				if got.Faults != nil || got.Crashed != nil {
					t.Errorf("%s/%s/%d: zero profile left fault bookkeeping: %+v %v",
						algo, fam, seed, got.Faults, got.Crashed)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s/%d: zero-profile result differs from clean solver",
						algo, fam, seed)
				}
			}
		}
	}
}

// TestZeroProfileJSONLByteIdentical runs the radio engine with a JSONL
// observer twice — once with no Faults field set, once with an explicit
// zero profile — and requires byte-identical output containing none of the
// fault-only fields.
func TestZeroProfileJSONLByteIdentical(t *testing.T) {
	g := graph.Generate(graph.FamilyGNP, 48, rng.New(7))
	p := mis.ParamsDefault(g.N(), g.MaxDegree())
	record := func(cfg radio.Config) string {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		cfg.Model = radio.ModelCD
		cfg.Seed = 7
		cfg.Observer = w
		if _, err := radio.Run(g, cfg, mis.CDProgram(p)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	clean := record(radio.Config{})
	zero := record(radio.Config{Faults: faults.Profile{}})
	if clean != zero {
		t.Error("zero-profile JSONL differs from clean run")
	}
	if clean == "" {
		t.Fatal("observer recorded nothing")
	}
	for _, field := range []string{`"jammed"`, `"lost"`, `"noised"`, `"crashed"`} {
		if strings.Contains(clean, field) {
			t.Errorf("clean JSONL contains fault-only field %s", field)
		}
	}
}
