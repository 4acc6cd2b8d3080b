package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"radiomis/internal/telemetry"
)

// quickCfg runs experiments at smoke-test scale.
var quickCfg = Config{Seed: 1, Quick: true}

// TestAllDefinitionsRunQuick runs every experiment at smoke scale. Each
// must run its trials on the harness, which the perf section (folded from
// the harness's trial histogram) shows.
func TestAllDefinitionsRunQuick(t *testing.T) {
	for _, def := range All() {
		def := def
		t.Run(def.ID, func(t *testing.T) {
			t.Parallel()
			reg := telemetry.New()
			rep, err := def.Run(telemetry.WithRegistry(context.Background(), reg), quickCfg)
			if err != nil {
				t.Fatal(err)
			}
			if PerfFromRegistry(reg) == nil {
				t.Error("no perf section: the experiment ran no harness trials")
			}
			if rep.ID != def.ID {
				t.Errorf("report ID = %q, want %q", rep.ID, def.ID)
			}
			if len(rep.Tables) == 0 {
				t.Error("no tables produced")
			}
			out := rep.String()
			if !strings.Contains(out, def.ID) || !strings.Contains(out, "claim:") {
				t.Errorf("rendering missing fields:\n%s", out)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("E2"); err != nil {
		t.Errorf("Lookup(E2): %v", err)
	}
	if _, err := Lookup("e5"); err != nil {
		t.Errorf("Lookup is case-insensitive: %v", err)
	}
	if _, err := Lookup("E99"); err == nil {
		t.Error("Lookup accepted unknown ID")
	}
}

func TestAllOrderedAndUnique(t *testing.T) {
	defs := All()
	if len(defs) != 15 {
		t.Fatalf("experiment count = %d, want 15", len(defs))
	}
	seen := map[string]bool{}
	for i, d := range defs {
		if seen[d.ID] {
			t.Errorf("duplicate ID %s", d.ID)
		}
		seen[d.ID] = true
		if i > 0 && defs[i-1].ID >= d.ID {
			t.Errorf("IDs not sorted: %s before %s", defs[i-1].ID, d.ID)
		}
	}
}

func TestE7NoViolationsQuick(t *testing.T) {
	rep, err := E7CommitDegree(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Corollary 13 is a w.h.p. guarantee; at smoke scale there must be no
	// violations in the rendered table.
	out := rep.Tables[0].String()
	for _, line := range strings.Split(out, "\n")[2:] {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if fields[len(fields)-1] != "0" {
			t.Errorf("violations recorded: %q", line)
		}
	}
}

func TestE8IdenticalAtQuickScale(t *testing.T) {
	rep, err := E8Beeping(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Tables[0].String()
	if strings.Contains(out, "beep maxE") && !strings.Contains(out, "gnp") {
		t.Errorf("table missing families:\n%s", out)
	}
}

// TestRunCancelled checks that a cancelled context aborts every experiment
// before (or during) its trial work, surfacing context.Canceled.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, def := range All() {
		if _, err := def.Run(ctx, quickCfg); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled ctx: err = %v, want context.Canceled", def.ID, err)
		}
	}
}
