package radio

import (
	"errors"
	"testing"

	"radiomis/internal/graph"
)

func TestWakeRoundStaggersStart(t *testing.T) {
	g := graph.Path(2)
	res, err := Run(g, Config{
		Model:     ModelCD,
		Seed:      1,
		WakeRound: []uint64{0, 5},
	}, func(env *Env) int64 {
		start := env.Round()
		env.Listen()
		return int64(start)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 0 || res.Outputs[1] != 5 {
		t.Errorf("start rounds = %v, want [0 5]", res.Outputs)
	}
}

func TestWakeRoundDeliveryAcrossOffsets(t *testing.T) {
	// Node 1 wakes at round 3 and transmits immediately; node 0 listens
	// from round 0 and should hear it at round 3.
	g := graph.Path(2)
	res, err := Run(g, Config{
		Model:     ModelNoCD,
		Seed:      2,
		WakeRound: []uint64{0, 3},
	}, func(env *Env) int64 {
		if env.ID() == 1 {
			env.Transmit(9)
			return 0
		}
		for i := 0; i < 5; i++ {
			if r := env.Listen(); r.Kind == MessageKind {
				return int64(env.Round()) // round after reception
			}
		}
		return -1
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 4 {
		t.Errorf("reception round+1 = %d, want 4", res.Outputs[0])
	}
}

func TestWakeRoundLengthValidated(t *testing.T) {
	g := graph.Path(3)
	_, err := Run(g, Config{Model: ModelCD, Seed: 1, WakeRound: []uint64{0}}, func(env *Env) int64 {
		return 0
	})
	if err == nil {
		t.Error("mismatched WakeRound length accepted")
	}
}

func TestWakeRoundNilIsSynchronous(t *testing.T) {
	g := graph.Path(2)
	res, err := Run(g, Config{Model: ModelCD, Seed: 1}, func(env *Env) int64 {
		return int64(env.Round())
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out != 0 {
			t.Errorf("node %d started at round %d, want 0", v, out)
		}
	}
}

func TestTracerUnderStaggeredWake(t *testing.T) {
	// Four nodes with distinct wake offsets, no edges: each listens twice
	// then halts. Observer callbacks must respect the per-node offsets:
	// node i's first observed activity is at round wake[i], and
	// ObserveHalt fires at wake[i]+2 (the round after its last awake
	// action).
	wake := []uint64{0, 3, 3, 7}
	g := graph.New(4)
	rec := &recordingObserver{}
	_, err := Run(g, Config{
		Model:     ModelCD,
		Seed:      1,
		WakeRound: wake,
		Observer:  rec,
	}, func(env *Env) int64 {
		env.Listen()
		env.Listen()
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}

	firstSeen := map[int]uint64{}
	listens := 0
	for _, s := range rec.rounds {
		for _, rx := range s.Listeners {
			if _, ok := firstSeen[rx.ID]; !ok {
				firstSeen[rx.ID] = s.Round
			}
		}
		listens += len(s.Listeners)
	}
	for id, w := range wake {
		if firstSeen[id] != w {
			t.Errorf("node %d first observed at round %d, want wake round %d", id, firstSeen[id], w)
		}
		if got := rec.halts[id]; got != w+2 {
			t.Errorf("node %d halted at round %d, want %d (wake %d + 2 listens)", id, got, w+2, w)
		}
	}
	if listens != 8 {
		t.Errorf("counted %d listens, want 8", listens)
	}
	// Rounds 3 and 7 host two resp. one listeners alongside earlier nodes
	// only if offsets overlap; the observed rounds must be exactly the
	// distinct rounds with awake nodes: {0,1, 3,4, 7,8} = 6.
	if len(rec.rounds) != 6 {
		t.Errorf("observed %d active rounds, want 6", len(rec.rounds))
	}
}

func TestObserverUnderStaggeredWake(t *testing.T) {
	// A transmitter waking late must be classified against the listener
	// that has been awake from round 0: silence until the wake round, then
	// a successful reception.
	g := graph.Path(2)
	o := &recordingObserver{}
	_, err := Run(g, Config{
		Model:     ModelNoCD,
		Seed:      1,
		WakeRound: []uint64{0, 2},
		Observer:  o,
	}, func(env *Env) int64 {
		if env.ID() == 1 {
			env.TransmitBit()
			return 0
		}
		for i := 0; i < 3; i++ {
			env.Listen()
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.rounds) != 3 {
		t.Fatalf("observed %d rounds, want 3", len(o.rounds))
	}
	wantSucc := []int{0, 0, 1}
	for i, s := range o.rounds {
		if s.Successes != wantSucc[i] || s.Silences != 1-wantSucc[i] {
			t.Errorf("round %d: successes=%d silences=%d, want successes=%d", i, s.Successes, s.Silences, wantSucc[i])
		}
	}
}

func TestUnaryOnlyRejectsPayloads(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(g, Config{Model: ModelCD, Seed: 1, UnaryOnly: true}, func(env *Env) int64 {
		env.Transmit(42)
		return 0
	})
	if !errors.Is(err, ErrNotUnary) {
		t.Fatalf("err = %v, want ErrNotUnary", err)
	}
}

func TestUnaryOnlyAcceptsBits(t *testing.T) {
	g := graph.Path(2)
	res, err := Run(g, Config{Model: ModelCD, Seed: 1, UnaryOnly: true}, func(env *Env) int64 {
		if env.ID() == 0 {
			env.TransmitBit()
			return 0
		}
		return int64(env.Listen().Kind)
	})
	if err != nil {
		t.Fatal(err)
	}
	if Kind(res.Outputs[1]) != MessageKind {
		t.Error("unary transmission lost")
	}
}
