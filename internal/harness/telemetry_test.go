package harness

import (
	"context"
	"reflect"
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/mis"
	"radiomis/internal/rng"
	"radiomis/internal/telemetry"
)

// trialSolve is a realistic trial: one CD solve on a small random graph,
// deterministic in the seed alone.
func trialSolve(ctx context.Context, seed uint64) (Metrics, error) {
	g := graph.GNP(64, 8.0/64, rng.New(seed))
	res, err := mis.Run("cd", g, mis.ParamsDefault(g.N(), g.MaxDegree()), mis.RunOpts{Seed: seed, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return Metrics{
		"rounds":    float64(res.Rounds),
		"maxEnergy": float64(res.MaxEnergy()),
	}, nil
}

// TestRepeatTelemetryNeutral is the harness-level neutrality parity test:
// a batch run with a telemetry registry on the context must produce
// DeepEqual aggregates to the same batch without one — telemetry is
// out-of-band and can never perturb results.
func TestRepeatTelemetryNeutral(t *testing.T) {
	opts := Options{Trials: 6, Seed: 11, Parallelism: 2}
	plain, err := Repeat(context.Background(), opts, trialSolve)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	ctx := telemetry.WithRegistry(context.Background(), reg)
	instrumented, err := Repeat(ctx, opts, trialSolve)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, instrumented) {
		t.Errorf("telemetry changed the aggregate:\noff: %+v\non:  %+v", plain, instrumented)
	}

	h, ok := reg.LookupHistogram(MetricTrialSeconds)
	if !ok {
		t.Fatalf("registry missing %s after an instrumented batch", MetricTrialSeconds)
	}
	if got := h.Count(); got != uint64(opts.Trials) {
		t.Errorf("trial histogram count = %d, want %d", got, opts.Trials)
	}
	c, ok := reg.LookupCounter(MetricTrialsTotal)
	if !ok {
		t.Fatalf("registry missing %s after an instrumented batch", MetricTrialsTotal)
	}
	if got := c.Value(); got != uint64(opts.Trials) {
		t.Errorf("trials counter = %d, want %d", got, opts.Trials)
	}
}

// TestRepeatWithoutRegistryRegistersNothing pins the disabled path: with
// no registry on the context, Repeat must not create one.
func TestRepeatWithoutRegistryRegistersNothing(t *testing.T) {
	if reg := telemetry.FromContext(context.Background()); reg != nil {
		t.Fatal("background context unexpectedly carries a registry")
	}
	if _, err := Repeat(context.Background(), Options{Trials: 2, Seed: 3}, trialSolve); err != nil {
		t.Fatal(err)
	}
}

// TestPoolShards pins the worker-shard split recorded in report headers to
// what Repeat actually uses.
func TestPoolShards(t *testing.T) {
	if got := PoolShards(1); got < 1 {
		t.Errorf("PoolShards(1) = %d, want ≥ 1", got)
	}
	if got := PoolShards(1 << 20); got != 1 {
		t.Errorf("PoolShards(huge) = %d, want 1", got)
	}
	if got, def := PoolShards(0), PoolShards(-1); got != def {
		t.Errorf("PoolShards(0) = %d but PoolShards(-1) = %d; both should mean GOMAXPROCS", got, def)
	}
}
