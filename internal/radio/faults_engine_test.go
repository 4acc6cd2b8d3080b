package radio

import (
	"reflect"
	"testing"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

// chatter is a program that transmits and listens for a fixed number of
// rounds, returning a digest of what it heard — enough channel activity to
// exercise every fault model.
func chatter(rounds int) Program {
	return func(env *Env) int64 {
		var digest int64
		for i := 0; i < rounds; i++ {
			if (env.ID()+i)%2 == 0 {
				env.Transmit(uint64(env.ID() + 1))
			} else {
				r := env.Listen()
				digest = digest*31 + int64(r.Kind) + int64(r.Payload)
			}
		}
		return digest
	}
}

func TestLossMakesDeliveriesDisappear(t *testing.T) {
	// Pair graph, node 0 transmits each round, node 1 listens: under heavy
	// loss some listens must come back silent even though the neighbor
	// transmitted every single round.
	g := pairGraph(t)
	silences := 0
	const rounds = 200
	res, err := Run(g, Config{Model: ModelCD, Seed: 7, Faults: faults.Profile{Loss: 0.5}}, func(env *Env) int64 {
		n := int64(0)
		for i := 0; i < rounds; i++ {
			if env.ID() == 0 {
				env.Transmit(1)
			} else if env.Listen().Kind == Silence {
				n++
			}
		}
		return n
	})
	if err != nil {
		t.Fatal(err)
	}
	silences = int(res.Outputs[1])
	if silences == 0 || silences == rounds {
		t.Errorf("lossy channel produced %d/%d silences, want strictly between", silences, rounds)
	}
	if res.Faults == nil || res.Faults.Lost == 0 {
		t.Errorf("Result.Faults = %+v, want non-zero Lost", res.Faults)
	}
}

func TestNoiseFabricatesInterference(t *testing.T) {
	// An isolated listener hears pure silence on a clean channel; with noise
	// enabled some listens must perceive a collision (CD model).
	g := graph.New(1)
	const rounds = 300
	res, err := Run(g, Config{Model: ModelCD, Seed: 3, Faults: faults.Profile{Noise: 0.2}}, func(env *Env) int64 {
		n := int64(0)
		for i := 0; i < rounds; i++ {
			if env.Listen().Kind == CollisionKind {
				n++
			}
		}
		return n
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] == 0 {
		t.Error("noisy channel never fabricated a collision at an isolated listener")
	}
	if res.Faults.Noised == 0 {
		t.Error("Stats.Noised = 0 after perceived collisions")
	}
}

func TestJammerDisruptsReceptions(t *testing.T) {
	// Node 0 transmits alone each round — every clean reception succeeds. A
	// jammer with budget 5 must turn exactly 5 of them into collisions.
	g := pairGraph(t)
	const rounds = 50
	res, err := Run(g, Config{
		Model:  ModelCD,
		Seed:   11,
		Faults: faults.Profile{Jammer: faults.Jammer{Budget: 5}},
	}, func(env *Env) int64 {
		n := int64(0)
		for i := 0; i < rounds; i++ {
			if env.ID() == 0 {
				env.Transmit(1)
			} else if env.Listen().Kind == CollisionKind {
				n++
			}
		}
		return n
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1] != 5 {
		t.Errorf("listener saw %d jammed rounds, want 5 (the budget)", res.Outputs[1])
	}
	if res.Faults.Jams != 5 {
		t.Errorf("Stats.Jams = %d, want 5", res.Faults.Jams)
	}
}

func TestCrashStopKillsNodes(t *testing.T) {
	// With a high crash rate and no restart, some chatterers must die; the
	// run still terminates and marks them in Result.Crashed.
	g := graph.Star(8)
	res, err := Run(g, Config{
		Model:  ModelCD,
		Seed:   5,
		Faults: faults.Profile{Crash: faults.Crash{Rate: 0.1}},
	}, chatter(40))
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed == nil {
		t.Fatal("Result.Crashed not allocated under crash faults")
	}
	crashed := 0
	for _, c := range res.Crashed {
		if c {
			crashed++
		}
	}
	if crashed == 0 {
		t.Error("no node crashed at rate 0.1 over 8×40 awake actions")
	}
	if res.Faults.Crashes != uint64(crashed) {
		t.Errorf("Stats.Crashes = %d, Crashed marks %d", res.Faults.Crashes, crashed)
	}
	if res.Faults.Restarts != 0 {
		t.Errorf("crash-stop run recorded %d restarts", res.Faults.Restarts)
	}
	// A crash-stopped node never halts, so its HaltRound stays 0; a
	// survivor's is the nonzero round after its 40 awake rounds.
	for id, c := range res.Crashed {
		if hr := res.HaltRound[id]; c != (hr == 0) {
			t.Errorf("node %d: crashed %v but HaltRound %d", id, c, hr)
		}
	}
}

func TestCrashRestartRerunsProgram(t *testing.T) {
	// Count program invocations: with restarts enabled the program must
	// start more times than there are nodes, and every node must still
	// produce an output (restarted lives run to completion). A node's
	// HaltRound is the round its last life returned in: the halt of the
	// surviving life.
	g := graph.Star(6)
	starts := make([]int, g.N())
	returned := make([]uint64, g.N())
	res, err := Run(g, Config{
		Model:  ModelCD,
		Seed:   2,
		Faults: faults.Profile{Crash: faults.Crash{Rate: 0.08, RestartAfter: 4}},
	}, func(env *Env) int64 {
		// Lives run one after another on the node's own goroutine; the
		// coordinator never touches starts or returned.
		starts[env.ID()]++
		out := chatter(30)(env)
		returned[env.ID()] = env.Round()
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range starts {
		total += s
	}
	if total <= g.N() {
		t.Errorf("program started %d times across %d nodes; expected restarts", total, g.N())
	}
	if uint64(total-g.N()) != res.Faults.Restarts {
		t.Errorf("extra starts = %d, Stats.Restarts = %d", total-g.N(), res.Faults.Restarts)
	}
	for id, c := range res.Crashed {
		if c {
			t.Errorf("node %d terminally crashed despite unlimited restarts", id)
		}
	}
	if !reflect.DeepEqual(res.HaltRound, returned) {
		t.Errorf("HaltRound = %v, want the surviving lives' halt rounds %v", res.HaltRound, returned)
	}
}

func TestMaxRestartsIsTerminal(t *testing.T) {
	g := graph.Star(4)
	res, err := Run(g, Config{
		Model:  ModelCD,
		Seed:   13,
		Faults: faults.Profile{Crash: faults.Crash{Rate: 0.3, RestartAfter: 2, MaxRestarts: 1}},
	}, chatter(60))
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for _, c := range res.Crashed {
		if c {
			crashed++
		}
	}
	if crashed == 0 {
		t.Error("no terminal crash at rate 0.3 with MaxRestarts 1")
	}
	if res.Faults.Restarts == 0 {
		t.Error("no restart before the terminal crashes")
	}
}

func TestWakeSpreadStaggersStarts(t *testing.T) {
	g := graph.New(16)
	first := make([]uint64, g.N())
	res, err := Run(g, Config{
		Model:  ModelCD,
		Seed:   9,
		Faults: faults.Profile{WakeSpread: 100},
	}, func(env *Env) int64 {
		first[env.ID()] = env.Round()
		env.Listen()
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[uint64]bool{}
	for id, r := range first {
		if r > 100 {
			t.Errorf("node %d woke at round %d > spread 100", id, r)
		}
		distinct[r] = true
	}
	if len(distinct) < 2 {
		t.Error("WakeSpread 100 produced a synchronous start across 16 nodes")
	}
	if res.Rounds == 0 {
		t.Error("run recorded no rounds")
	}
}

func TestWakeSpreadExclusiveWithWakeRound(t *testing.T) {
	g := pairGraph(t)
	_, err := Run(g, Config{
		Model:     ModelCD,
		Seed:      1,
		WakeRound: []uint64{0, 1},
		Faults:    faults.Profile{WakeSpread: 10},
	}, chatter(2))
	if err == nil {
		t.Fatal("WakeRound + WakeSpread accepted")
	}
}

func TestInvalidProfileRejected(t *testing.T) {
	g := pairGraph(t)
	_, err := Run(g, Config{Model: ModelCD, Faults: faults.Profile{Loss: 2}}, chatter(2))
	if err == nil {
		t.Fatal("invalid fault profile accepted")
	}
}

// TestCrashOnFinalTransmitDoesNotDeadlock regression-tests the halt race:
// a crash drawn on a node's last transmit races the node's halt intent —
// the program buffers the halt and returns before the coordinator can
// deliver the (unbuffered) crash signal, so a naive handshake deadlocks.
// The supervisor must stay receptive after a normal halt.
func TestCrashOnFinalTransmitDoesNotDeadlock(t *testing.T) {
	// Every node transmits exactly once and immediately halts; a high crash
	// rate makes the final-transmit crash near-certain across seeds.
	final := func(env *Env) int64 {
		env.Transmit(1)
		return int64(env.ID())
	}
	for _, restartAfter := range []uint64{0, 4} {
		for seed := uint64(0); seed < 30; seed++ {
			g := graph.Star(5)
			res, err := Run(g, Config{
				Model:  ModelCD,
				Seed:   seed,
				Faults: faults.Profile{Crash: faults.Crash{Rate: 0.6, RestartAfter: restartAfter, MaxRestarts: min1(restartAfter)}},
			}, final)
			if err != nil {
				t.Fatal(err)
			}
			for id, crashed := range res.Crashed {
				if !crashed && res.Outputs[id] != int64(id) {
					t.Fatalf("seed %d: surviving node %d output %d", seed, id, res.Outputs[id])
				}
			}
		}
	}
}

func min1(restartAfter uint64) int {
	if restartAfter == 0 {
		return 0
	}
	return 1
}

// TestFaultyRunsDeterministic is the fault-layer analogue of the engine's
// core reproducibility guarantee: identical seeds give identical results
// even with every fault model active, and a different seed diverges.
func TestFaultyRunsDeterministic(t *testing.T) {
	profile := faults.Profile{
		Loss:       0.15,
		Noise:      0.05,
		Jammer:     faults.Jammer{Budget: 20, Threshold: 2},
		Crash:      faults.Crash{Rate: 0.03, RestartAfter: 8, MaxRestarts: 2},
		WakeSpread: 16,
	}
	run := func(seed uint64) *Result {
		g := graph.Generate(graph.FamilyGNP, 24, rng.New(1))
		res, err := Run(g, Config{Model: ModelCD, Seed: seed, Faults: profile}, chatter(50))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identically-seeded faulty runs diverged:\n%+v\n%+v", a, b)
	}
	c := run(43)
	if reflect.DeepEqual(a.Outputs, c.Outputs) && reflect.DeepEqual(a.Energy, c.Energy) {
		t.Error("different seeds produced identical faulty runs")
	}
}

// TestZeroProfileIdenticalToClean is the engine-level half of the parity
// guarantee (the cross-algorithm half lives in internal/faults): a config
// whose Faults field is the zero Profile produces a Result deeply equal to
// one with no Faults field at all, and identical observer streams.
func TestZeroProfileIdenticalToClean(t *testing.T) {
	g := graph.Star(10)
	var cleanObs, zeroObs capturingObserver
	clean, err := Run(g, Config{Model: ModelNoCD, Seed: 77, Observer: &cleanObs}, chatter(30))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Run(g, Config{Model: ModelNoCD, Seed: 77, Observer: &zeroObs, Faults: faults.Profile{}}, chatter(30))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, zero) {
		t.Errorf("zero-profile Result differs from clean:\n%+v\n%+v", clean, zero)
	}
	if !reflect.DeepEqual(cleanObs, zeroObs) {
		t.Error("zero-profile observer stream differs from clean")
	}
}

// capturingObserver records deep copies of every round for comparison.
type capturingObserver struct {
	rounds []RoundStats
	halts  []int
}

func (c *capturingObserver) ObserveRound(s *RoundStats) {
	cp := *s
	cp.Transmitters = append([]NodeTx(nil), s.Transmitters...)
	cp.Listeners = append([]NodeRx(nil), s.Listeners...)
	cp.Crashed = append([]int(nil), s.Crashed...)
	c.rounds = append(c.rounds, cp)
}

func (c *capturingObserver) ObserveHalt(id int, _ int64, _ uint64, _ uint64) {
	c.halts = append(c.halts, id)
}
