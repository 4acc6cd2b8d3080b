package radio

import (
	"context"
	"errors"
	"testing"
	"time"

	"radiomis/internal/graph"
)

// pairGraph returns the single-edge graph on two vertices.
func pairGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	return g
}

// triangleCenter returns a star with center 0 and `leaves` leaves.
func star(t *testing.T, leaves int) *graph.Graph {
	t.Helper()
	return graph.Star(leaves + 1)
}

func TestSingleTransmitterDelivers(t *testing.T) {
	for _, model := range []Model{ModelCD, ModelNoCD} {
		t.Run(model.String(), func(t *testing.T) {
			g := pairGraph(t)
			res, err := Run(g, Config{Model: model, Seed: 1}, func(env *Env) int64 {
				if env.ID() == 0 {
					env.Transmit(42)
					return 0
				}
				r := env.Listen()
				if r.Kind != MessageKind {
					return -1
				}
				return int64(r.Payload)
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Outputs[1] != 42 {
				t.Errorf("listener output = %d, want payload 42", res.Outputs[1])
			}
		})
	}
}

func TestCollisionSemanticsPerModel(t *testing.T) {
	tests := []struct {
		model Model
		want  Kind
	}{
		{model: ModelCD, want: CollisionKind},
		{model: ModelNoCD, want: Silence},
		{model: ModelBeep, want: BeepKind},
	}
	for _, tt := range tests {
		t.Run(tt.model.String(), func(t *testing.T) {
			g := star(t, 2) // both leaves transmit; center listens
			res, err := Run(g, Config{Model: tt.model, Seed: 1}, func(env *Env) int64 {
				if env.ID() == 0 {
					return int64(env.Listen().Kind)
				}
				env.TransmitBit()
				return 0
			})
			if err != nil {
				t.Fatal(err)
			}
			if Kind(res.Outputs[0]) != tt.want {
				t.Errorf("center heard %v, want %v", Kind(res.Outputs[0]), tt.want)
			}
		})
	}
}

func TestBeepSingleTransmitterIsBeepNotMessage(t *testing.T) {
	g := pairGraph(t)
	res, err := Run(g, Config{Model: ModelBeep, Seed: 1}, func(env *Env) int64 {
		if env.ID() == 0 {
			env.Transmit(99)
			return 0
		}
		r := env.Listen()
		if r.Kind == BeepKind && r.Payload == 0 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1] != 1 {
		t.Error("beep model leaked a payload or wrong kind for single transmitter")
	}
}

func TestSilenceWhenNobodyTransmits(t *testing.T) {
	for _, model := range []Model{ModelCD, ModelNoCD, ModelBeep} {
		t.Run(model.String(), func(t *testing.T) {
			g := pairGraph(t)
			res, err := Run(g, Config{Model: model, Seed: 1}, func(env *Env) int64 {
				return int64(env.Listen().Kind)
			})
			if err != nil {
				t.Fatal(err)
			}
			for id, out := range res.Outputs {
				if Kind(out) != Silence {
					t.Errorf("node %d heard %v, want silence", id, Kind(out))
				}
			}
		})
	}
}

func TestNoSenderSideDetection(t *testing.T) {
	// Two adjacent nodes transmitting simultaneously hear nothing: a node
	// cannot send and listen in the same round, so neither receives.
	g := pairGraph(t)
	res, err := Run(g, Config{Model: ModelCD, Seed: 1}, func(env *Env) int64 {
		env.TransmitBit()               // round 0: both transmit
		return int64(env.Listen().Kind) // round 1: both listen — silence
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, out := range res.Outputs {
		if Kind(out) != Silence {
			t.Errorf("node %d heard %v in the round after simultaneous transmission", id, Kind(out))
		}
	}
}

func TestNonNeighborsDoNotInterfere(t *testing.T) {
	// Path 0-1-2: node 0 transmits, node 2 transmits, node 1 hears a
	// collision (both are its neighbors); a 4th isolated node hears nothing.
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(g, Config{Model: ModelCD, Seed: 1}, func(env *Env) int64 {
		switch env.ID() {
		case 0, 2:
			env.TransmitBit()
			return 0
		default:
			return int64(env.Listen().Kind)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if Kind(res.Outputs[1]) != CollisionKind {
		t.Errorf("middle node heard %v, want collision", Kind(res.Outputs[1]))
	}
	if Kind(res.Outputs[3]) != Silence {
		t.Errorf("isolated node heard %v, want silence", Kind(res.Outputs[3]))
	}
}

func TestEnergyAccounting(t *testing.T) {
	g := pairGraph(t)
	res, err := Run(g, Config{Model: ModelCD, Seed: 1}, func(env *Env) int64 {
		if env.ID() == 0 {
			env.TransmitBit() // 1 energy
			env.Sleep(10)     // free
			env.Listen()      // 1 energy
			return 0
		}
		env.Sleep(100) // free
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy[0] != 2 {
		t.Errorf("node 0 energy = %d, want 2", res.Energy[0])
	}
	if res.Energy[1] != 0 {
		t.Errorf("node 1 energy = %d, want 0 (sleep is free)", res.Energy[1])
	}
}

func TestRoundAccountingSkipsTrailingSleep(t *testing.T) {
	g := graph.New(1)
	res, err := Run(g, Config{Model: ModelNoCD, Seed: 1}, func(env *Env) int64 {
		env.Listen()    // round 0
		env.Sleep(1000) // rounds 1..1000 — trailing sleep, no activity
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1 (trailing sleep must not count)", res.Rounds)
	}
}

func TestSleepSynchronization(t *testing.T) {
	// Node 0 transmits at round 5 exactly; node 1 sleeps 5 rounds then
	// listens at round 5. The message must be delivered — verifying that
	// node-local round counters align with engine scheduling.
	g := pairGraph(t)
	res, err := Run(g, Config{Model: ModelNoCD, Seed: 1}, func(env *Env) int64 {
		if env.ID() == 0 {
			env.Sleep(5)
			env.Transmit(7)
			return 0
		}
		env.SleepUntil(5)
		r := env.Listen()
		return int64(r.Payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1] != 7 {
		t.Errorf("synchronized delivery failed: output = %d, want 7", res.Outputs[1])
	}
}

func TestSleepUntilPastIsNoop(t *testing.T) {
	g := graph.New(1)
	res, err := Run(g, Config{Model: ModelCD, Seed: 1}, func(env *Env) int64 {
		env.Listen()
		env.SleepUntil(0) // already past — must not panic or rewind
		return int64(env.Round())
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 1 {
		t.Errorf("round after no-op SleepUntil = %d, want 1", res.Outputs[0])
	}
}

func TestRoundCounterVisibleToProgram(t *testing.T) {
	g := graph.New(1)
	res, err := Run(g, Config{Model: ModelCD, Seed: 1}, func(env *Env) int64 {
		if env.Round() != 0 {
			return -1
		}
		env.Listen()
		if env.Round() != 1 {
			return -2
		}
		env.Sleep(9)
		if env.Round() != 10 {
			return -3
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 0 {
		t.Errorf("round bookkeeping check failed with code %d", res.Outputs[0])
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := graph.Complete(8)
	prog := func(env *Env) int64 {
		total := int64(0)
		for i := 0; i < 20; i++ {
			if env.Rand().Int63()&1 == 1 {
				env.TransmitBit()
			} else {
				r := env.Listen()
				total = total*3 + int64(r.Kind)
			}
		}
		return total
	}
	run := func() *Result {
		res, err := Run(g, Config{Model: ModelCD, Seed: 99}, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] || a.Energy[i] != b.Energy[i] {
			t.Fatalf("node %d diverged across identical seeds", i)
		}
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds diverged: %d vs %d", a.Rounds, b.Rounds)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	g := graph.Complete(8)
	prog := func(env *Env) int64 {
		return env.Rand().Int63()
	}
	a, err := Run(g, Config{Model: ModelCD, Seed: 1}, prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Config{Model: ModelCD, Seed: 2}, prog)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical node randomness")
	}
}

func TestMaxRoundsAborts(t *testing.T) {
	g := graph.New(2)
	_, err := Run(g, Config{Model: ModelCD, Seed: 1, MaxRounds: 100}, func(env *Env) int64 {
		for {
			env.Listen() // never halts
		}
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestMaxRoundsAbortsSleepers(t *testing.T) {
	// Nodes sleeping past the cap must also be torn down cleanly.
	g := graph.New(3)
	_, err := Run(g, Config{Model: ModelNoCD, Seed: 1, MaxRounds: 50}, func(env *Env) int64 {
		for {
			env.Sleep(1000)
		}
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestContextAbortsRun(t *testing.T) {
	// A cancelled Config.Ctx must stop a run whose program never halts,
	// returning ErrAborted wrapping the cancellation cause.
	g := graph.New(2)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	// Buffered: the signal is sent once, without blocking, and must not be
	// lost if this goroutine has not reached its receive yet.
	started := make(chan struct{}, 1)
	go func() {
		_, err := Run(g, Config{Model: ModelCD, Seed: 1, Ctx: ctx}, func(env *Env) int64 {
			for {
				if env.Round() == 3 {
					select {
					case started <- struct{}{}:
					default:
					}
				}
				env.Listen() // never halts
			}
		})
		errc <- err
	}()
	<-started // the run is live before we cancel
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled in chain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not abort after cancellation")
	}
}

func TestContextPreCancelledAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := graph.New(1)
	_, err := Run(g, Config{Model: ModelNoCD, Seed: 1, Ctx: ctx}, func(env *Env) int64 {
		env.Listen()
		return 0
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

func TestNilContextRuns(t *testing.T) {
	g := graph.New(1)
	if _, err := Run(g, Config{Model: ModelCD, Seed: 1}, func(env *Env) int64 { return 7 }); err != nil {
		t.Fatalf("nil-ctx run failed: %v", err)
	}
}

func TestInvalidModelRejected(t *testing.T) {
	g := graph.New(1)
	if _, err := Run(g, Config{Seed: 1}, func(env *Env) int64 { return 0 }); err == nil {
		t.Error("zero-valued model accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	res, err := Run(graph.New(0), Config{Model: ModelCD, Seed: 1}, func(env *Env) int64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 || res.Rounds != 0 {
		t.Error("empty graph run not empty")
	}
}

func TestResultAggregates(t *testing.T) {
	r := &Result{Energy: []uint64{3, 5, 1}}
	if r.MaxEnergy() != 5 {
		t.Errorf("MaxEnergy = %d, want 5", r.MaxEnergy())
	}
	if r.AvgEnergy() != 3 {
		t.Errorf("AvgEnergy = %v, want 3", r.AvgEnergy())
	}
	if r.TotalEnergy() != 9 {
		t.Errorf("TotalEnergy = %d, want 9", r.TotalEnergy())
	}
	empty := &Result{}
	if empty.MaxEnergy() != 0 || empty.AvgEnergy() != 0 {
		t.Error("empty result aggregates nonzero")
	}
}

func TestCountingTracer(t *testing.T) {
	g := pairGraph(t)
	rec := &recordingObserver{}
	_, err := Run(g, Config{Model: ModelCD, Seed: 1, Observer: rec}, func(env *Env) int64 {
		if env.ID() == 0 {
			env.TransmitBit()
			return 0
		}
		env.Listen()
		env.Listen()
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	transmissions, listens := 0, 0
	for _, s := range rec.rounds {
		transmissions += len(s.Transmitters)
		listens += len(s.Listeners)
	}
	if len(rec.halts) != 2 {
		t.Errorf("Halts = %d, want 2", len(rec.halts))
	}
	if transmissions != 1 {
		t.Errorf("Transmissions = %d, want 1", transmissions)
	}
	if listens != 2 {
		t.Errorf("Listens = %d, want 2", listens)
	}
	if len(rec.rounds) != 2 {
		t.Errorf("ActiveRounds = %d, want 2", len(rec.rounds))
	}
}

func TestManyNodesLargeFanIn(t *testing.T) {
	// 1 listener with 200 transmitting neighbors: CD hears collision.
	g := star(t, 200)
	res, err := Run(g, Config{Model: ModelCD, Seed: 3}, func(env *Env) int64 {
		if env.ID() == 0 {
			return int64(env.Listen().Kind)
		}
		env.TransmitBit()
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if Kind(res.Outputs[0]) != CollisionKind {
		t.Errorf("center heard %v, want collision", Kind(res.Outputs[0]))
	}
}

func TestHaltFreesRounds(t *testing.T) {
	// A halted node must not transmit in later rounds: node 0 halts after
	// round 0; node 1 listens at round 1 and must hear silence.
	g := pairGraph(t)
	res, err := Run(g, Config{Model: ModelCD, Seed: 1}, func(env *Env) int64 {
		if env.ID() == 0 {
			env.TransmitBit()
			return 0 // halt
		}
		env.Listen()                    // round 0: hears the message
		return int64(env.Listen().Kind) // round 1: must be silence
	})
	if err != nil {
		t.Fatal(err)
	}
	if Kind(res.Outputs[1]) != Silence {
		t.Errorf("heard %v after neighbor halted, want silence", Kind(res.Outputs[1]))
	}
}

func TestKindAndModelStrings(t *testing.T) {
	if ModelCD.String() != "cd" || ModelNoCD.String() != "no-cd" || ModelBeep.String() != "beep" {
		t.Error("model names wrong")
	}
	if Silence.String() != "silence" || MessageKind.String() != "message" ||
		CollisionKind.String() != "collision" || BeepKind.String() != "beep" {
		t.Error("kind names wrong")
	}
	if Model(0).String() == "" || Kind(0).String() == "" {
		t.Error("unknown values should still stringify")
	}
}
