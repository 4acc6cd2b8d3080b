package radio

import (
	"testing"

	"radiomis/internal/graph"
)

func TestRecordingTracerCapturesSchedule(t *testing.T) {
	g := graph.Path(2)
	rec := &recordingObserver{}
	_, err := Run(g, Config{Model: ModelCD, Seed: 1, Observer: rec}, func(env *Env) int64 {
		if env.ID() == 0 {
			env.TransmitBit() // round 0
			env.Sleep(2)
			env.Listen() // round 3
			return 0
		}
		env.Listen() // round 0
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.rounds) != 2 {
		t.Fatalf("recorded %d active rounds, want 2", len(rec.rounds))
	}
	ev0 := rec.rounds[0]
	if ev0.Round != 0 || len(ev0.Transmitters) != 1 || ev0.Transmitters[0].ID != 0 ||
		len(ev0.Listeners) != 1 || ev0.Listeners[0].ID != 1 {
		t.Errorf("round 0 event wrong: %+v", ev0)
	}
	ev1 := rec.rounds[1]
	if ev1.Round != 3 || len(ev1.Listeners) != 1 || ev1.Listeners[0].ID != 0 {
		t.Errorf("round 3 event wrong: %+v", ev1)
	}
	if len(rec.halts) != 2 {
		t.Errorf("halt rounds recorded for %d nodes, want 2", len(rec.halts))
	}
}

func TestConcurrentIndependentRuns(t *testing.T) {
	// Two simultaneous engines must not interfere (no shared state).
	g := graph.Complete(16)
	prog := func(env *Env) int64 {
		acc := int64(0)
		for i := 0; i < 10; i++ {
			if env.Rand().Int63()&1 == 1 {
				env.TransmitBit()
			} else {
				acc = acc*7 + int64(env.Listen().Kind)
			}
		}
		return acc
	}
	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := Run(g, Config{Model: ModelCD, Seed: 42}, prog)
			ch <- out{res: res, err: err}
		}()
	}
	a, b := <-ch, <-ch
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	for v := range a.res.Outputs {
		if a.res.Outputs[v] != b.res.Outputs[v] {
			t.Fatalf("concurrent runs with same seed diverged at node %d", v)
		}
	}
}

func TestPayloadIntegrityAcrossRounds(t *testing.T) {
	// A stream of distinct payloads must arrive unmangled and in order.
	g := graph.Path(2)
	res, err := Run(g, Config{Model: ModelNoCD, Seed: 3}, func(env *Env) int64 {
		if env.ID() == 0 {
			for i := uint64(0); i < 20; i++ {
				env.Transmit(i*i + 1)
			}
			return 0
		}
		acc := int64(0)
		for i := uint64(0); i < 20; i++ {
			r := env.Listen()
			if r.Kind != MessageKind || r.Payload != i*i+1 {
				return -int64(i) - 1
			}
			acc++
		}
		return acc
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1] != 20 {
		t.Errorf("payload stream corrupted: code %d", res.Outputs[1])
	}
}

func TestEnergyNeverExceedsActiveRounds(t *testing.T) {
	g := graph.Complete(8)
	rec := &recordingObserver{}
	res, err := Run(g, Config{Model: ModelCD, Seed: 4, Observer: rec}, func(env *Env) int64 {
		for i := 0; i < 30; i++ {
			switch env.Rand().Intn(3) {
			case 0:
				env.TransmitBit()
			case 1:
				env.Listen()
			default:
				env.Sleep(uint64(env.Rand().Intn(5) + 1))
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, e := range res.Energy {
		if e > res.Rounds {
			t.Errorf("node %d energy %d exceeds total rounds %d", v, e, res.Rounds)
		}
	}
	var actions uint64
	for _, s := range rec.rounds {
		actions += uint64(len(s.Transmitters) + len(s.Listeners))
	}
	if actions != res.TotalEnergy() {
		t.Errorf("observed action count %d != total energy %d", actions, res.TotalEnergy())
	}
}

func TestTracerRoundsMonotone(t *testing.T) {
	g := graph.Complete(4)
	rec := &recordingObserver{}
	_, err := Run(g, Config{Model: ModelCD, Seed: 5, Observer: rec}, func(env *Env) int64 {
		for i := 0; i < 10; i++ {
			if env.Rand().Int63()&1 == 1 {
				env.Listen()
			} else {
				env.Sleep(uint64(env.Rand().Intn(4) + 1))
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rec.rounds); i++ {
		if rec.rounds[i].Round <= rec.rounds[i-1].Round {
			t.Fatalf("observed rounds not strictly increasing: %d then %d",
				rec.rounds[i-1].Round, rec.rounds[i].Round)
		}
	}
}
