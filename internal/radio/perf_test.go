package radio

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// This file enforces RunPerf's contract (perf.go): collection is
// out-of-band — bit-identical Results and observer streams with telemetry
// on or off — and free when off (no added allocations on the nil-Perf
// path).

// runWithPerf runs the program twice at the same seed — once with perf
// collection, once without — and fails unless Results and observer event
// streams are bit-identical. It returns the collected RunPerf.
func runWithPerf(t *testing.T, g *graph.Graph, cfg Config, program Program) *RunPerf {
	t.Helper()
	obsOff := &parityObserver{}
	cfgOff := cfg
	cfgOff.Observer = obsOff
	resOff, errOff := Run(g, cfgOff, program)

	perf := &RunPerf{}
	obsOn := &parityObserver{}
	cfgOn := cfg
	cfgOn.Observer = obsOn
	cfgOn.Perf = perf
	resOn, errOn := Run(g, cfgOn, program)

	if (errOff == nil) != (errOn == nil) || (errOff != nil && errOff.Error() != errOn.Error()) {
		t.Fatalf("perf changed the run error: off=%v on=%v", errOff, errOn)
	}
	if !reflect.DeepEqual(resOff, resOn) {
		t.Errorf("perf changed the Result:\noff: %+v\non:  %+v", resOff, resOn)
	}
	if !reflect.DeepEqual(obsOff.events, obsOn.events) {
		t.Errorf("perf changed the observer stream (%d vs %d events)", len(obsOff.events), len(obsOn.events))
	}
	return perf
}

// TestPerfNeutrality is the telemetry-neutrality parity test: identical
// seeds with Config.Perf set and unset must produce DeepEqual Results and
// identical observer streams, across clean, sharded, pooled, and faulty
// runs.
func TestPerfNeutrality(t *testing.T) {
	for name, g := range parityGraphs(t) {
		t.Run("clean/"+name, func(t *testing.T) {
			perf := runWithPerf(t, g, Config{Model: ModelCD, Seed: 42}, decayProgram)
			if g.N() > 0 && perf.Rounds == 0 {
				t.Error("perf.Rounds = 0 on a run that simulated rounds")
			}
		})
	}

	g := parityGraphs(t)["gnp200"]
	t.Run("sharded", func(t *testing.T) {
		runWithPerf(t, g, Config{Model: ModelCD, Seed: 7, Shards: 3}, decayProgram)
	})
	t.Run("pooled", func(t *testing.T) {
		pool := NewPool(2)
		defer pool.Close()
		ctx := WithPool(context.Background(), pool)
		// Warm the pool, then verify parity on the reused state.
		if _, err := Run(g, Config{Model: ModelCD, Seed: 1, Ctx: ctx}, decayProgram); err != nil {
			t.Fatal(err)
		}
		perf := runWithPerf(t, g, Config{Model: ModelCD, Seed: 7, Ctx: ctx}, decayProgram)
		if !perf.PoolHit {
			t.Error("PoolHit = false on a pooled run")
		}
		if !perf.CSRReused {
			t.Error("CSRReused = false although the pool already snapshot this graph")
		}
		if perf.BufferGrows != 0 {
			t.Errorf("BufferGrows = %d on a warm pool, want 0", perf.BufferGrows)
		}
	})
	t.Run("faulty", func(t *testing.T) {
		cfg := Config{Model: ModelCD, Seed: 3, Faults: faults.Profile{
			Loss:  0.05,
			Noise: 0.01,
			Crash: faults.Crash{Rate: 0.002, RestartAfter: 4, MaxRestarts: 2},
		}}
		perf := runWithPerf(t, g, cfg, decayProgram)
		if perf.FaultRounds == 0 {
			t.Error("FaultRounds = 0 on a faulty run")
		}
		if perf.FastRounds != 0 {
			t.Errorf("FastRounds = %d on a faulty run, want 0 (all rounds take the fault path)", perf.FastRounds)
		}
	})
	t.Run("unary-error", func(t *testing.T) {
		// Perf must not perturb error runs either.
		runWithPerf(t, graph.Complete(8), Config{Model: ModelCD, Seed: 5, UnaryOnly: true},
			func(env *Env) int64 { env.Transmit(uint64(env.ID()) + 2); return 0 })
	})
}

// TestPerfFields sanity-checks the collected counters on a standalone run.
func TestPerfFields(t *testing.T) {
	g := graph.Cycle(200)
	perf := &RunPerf{}
	res, err := Run(g, Config{Model: ModelCD, Seed: 9, Shards: 2, Perf: perf}, decayProgram)
	if err != nil {
		t.Fatal(err)
	}
	if perf.Shards != 2 {
		t.Errorf("Shards = %d, want 2", perf.Shards)
	}
	if len(perf.ShardBusyNs) != 2 || len(perf.BarrierWaitNs) != 2 {
		t.Fatalf("per-shard slices sized %d/%d, want 2/2", len(perf.ShardBusyNs), len(perf.BarrierWaitNs))
	}
	if perf.Rounds == 0 || perf.Rounds != perf.FastRounds+perf.FaultRounds {
		t.Errorf("Rounds = %d (fast %d, fault %d): inconsistent", perf.Rounds, perf.FastRounds, perf.FaultRounds)
	}
	if perf.Rounds < res.Rounds {
		t.Errorf("executed rounds %d < result rounds %d", perf.Rounds, res.Rounds)
	}
	if perf.WallNs <= 0 || perf.RoundsPerSec <= 0 {
		t.Errorf("WallNs = %d, RoundsPerSec = %v: want positive", perf.WallNs, perf.RoundsPerSec)
	}
	var busy int64
	for _, b := range perf.ShardBusyNs {
		busy += b
	}
	if busy <= 0 {
		t.Error("no shard busy time recorded")
	}
	if perf.Imbalance < 1 {
		t.Errorf("Imbalance = %v, want ≥ 1", perf.Imbalance)
	}
	if perf.PoolHit || perf.CSRReused {
		t.Error("standalone run reported pool reuse")
	}
	if perf.BufferGrows == 0 {
		t.Error("cold standalone run reported no buffer growth")
	}

	// Reuse: binding the same RunPerf to a fresh run must reset it.
	prevRounds := perf.Rounds
	if _, err := Run(graph.Complete(2), Config{Model: ModelCD, Seed: 9, Perf: perf}, chatterProgram(4)); err != nil {
		t.Fatal(err)
	}
	if perf.Rounds >= prevRounds {
		t.Errorf("RunPerf not reset between runs: %d rounds after tiny run", perf.Rounds)
	}
	if perf.Shards != 1 || len(perf.ShardBusyNs) != 1 {
		t.Errorf("reused RunPerf not resized: shards %d, busy len %d", perf.Shards, len(perf.ShardBusyNs))
	}
}

// TestPerfHandoffWaitsPerBatch bounds RunPerf.HandoffWaits on a run whose
// nodes never listen: each runs ten batch capacities ahead through
// Transmit/Sleep and halts, so it hands over ⌈intents/batchCap⌉ batches and
// the scheduler waits at most once per batch. The bound holds at any
// GOMAXPROCS; a per-intent hand-off would exceed it by the capacity factor.
// At one P the scheduler reaches the first due node before any node
// goroutine ran, so it must report at least that wait.
func TestPerfHandoffWaitsPerBatch(t *testing.T) {
	const actions = 10 * batchCap
	program := func(env *Env) int64 {
		for i := 0; i < actions; i++ {
			if (env.ID()+i)%2 == 0 {
				env.Transmit(1)
			} else {
				env.Sleep(1)
			}
		}
		return 0
	}
	// Few nodes: the scheduler waits at most once per round, so only a
	// bound below the round count tells batches from single intents.
	g := graph.Cycle(8)
	const intents = actions + 1 // and the halt
	bound := uint64(g.N() * ((intents + batchCap - 1) / batchCap))
	perf := runWithPerf(t, g, Config{Model: ModelNoCD, Seed: 5}, program)
	if perf.HandoffWaits > bound {
		t.Errorf("%d hand-off waits, want ≤ %d = n·⌈%d/%d⌉", perf.HandoffWaits, bound, intents, batchCap)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := Run(g, Config{Model: ModelNoCD, Seed: 5, Perf: perf}, program); err != nil {
		t.Fatal(err)
	}
	if perf.HandoffWaits == 0 || perf.HandoffWaits > bound {
		t.Errorf("GOMAXPROCS=1: %d hand-off waits, want in [1, %d]", perf.HandoffWaits, bound)
	}
}

// TestPerfHandoffWaitsPerListenRun bounds RunPerf.HandoffWaits on a lone
// node at GOMAXPROCS=1 that listens for m rounds and hears nothing: as one
// ListenFor(m) the stretch is one hand-off, so the run waits at most twice
// (the listen run and the halt); as m Listen calls the scheduler reaches
// the node before its next listen in every round and waits about m+1
// times. Waits can only fall below these counts, if the runtime happens
// to run the node goroutine before the scheduler looks for its batch.
func TestPerfHandoffWaitsPerListenRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const m = 64
	g := graph.New(1)
	run := runWithPerf(t, g, Config{Model: ModelNoCD, Seed: 5}, func(env *Env) int64 {
		_, n := env.ListenFor(m)
		return int64(n)
	})
	if run.HandoffWaits > 2 {
		t.Errorf("ListenFor(%d): %d hand-off waits, want ≤ 2", m, run.HandoffWaits)
	}
	single := runWithPerf(t, g, Config{Model: ModelNoCD, Seed: 5}, func(env *Env) int64 {
		for i := 0; i < m; i++ {
			env.Listen()
		}
		return m
	})
	if single.HandoffWaits < m/2 {
		t.Errorf("%d Listen calls: %d hand-off waits, want about %d", m, single.HandoffWaits, m+1)
	}
	t.Logf("hand-off waits: ListenFor(%d) %d, %d Listen calls %d", m, run.HandoffWaits, m, single.HandoffWaits)
	if run.Rounds != single.Rounds {
		t.Errorf("the listen run took %d scheduler rounds, %d Listen calls %d", run.Rounds, m, single.Rounds)
	}
}

// TestPerfDisabledAddsNoAllocs extends the nil-observer zero-alloc guard
// to the telemetry layer: with Config.Perf nil the scheduler's per-round
// allocation count must stay zero — the disabled path is only nil checks.
func TestPerfDisabledAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	g := graph.Complete(4)
	const extra = 4096
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(g, Config{Model: ModelCD, Seed: 1}, chatterProgram(rounds)); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(64)
	long := measure(64 + extra)
	perRound := (long - base) / extra
	if perRound > 0.01 {
		t.Errorf("scheduler allocates %.4f objects/round with nil Perf (run deltas: %v -> %v), want 0",
			perRound, base, long)
	}
}

// TestPerfEnabledAddsNoPerRoundAllocs bounds the enabled path: a reused
// RunPerf adds a small constant number of allocations per run (the timing
// closure) and none per round.
func TestPerfEnabledAddsNoPerRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	g := graph.Complete(4)
	perf := &RunPerf{}
	const extra = 4096
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(g, Config{Model: ModelCD, Seed: 1, Perf: perf}, chatterProgram(rounds)); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(64)
	long := measure(64 + extra)
	perRound := (long - base) / extra
	if perRound > 0.01 {
		t.Errorf("scheduler allocates %.4f objects/round with Perf enabled (run deltas: %v -> %v), want 0",
			perRound, base, long)
	}

	// And the per-run constant must stay small: compare whole-run allocs
	// with perf enabled (reused RunPerf) against disabled.
	off := testing.AllocsPerRun(10, func() {
		if _, err := Run(g, Config{Model: ModelCD, Seed: 1}, chatterProgram(64)); err != nil {
			t.Fatal(err)
		}
	})
	on := testing.AllocsPerRun(10, func() {
		if _, err := Run(g, Config{Model: ModelCD, Seed: 1, Perf: perf}, chatterProgram(64)); err != nil {
			t.Fatal(err)
		}
	})
	if on-off > 4 {
		t.Errorf("perf collection adds %.1f allocs per run (off %.1f, on %.1f), want ≤ 4", on-off, off, on)
	}
}
