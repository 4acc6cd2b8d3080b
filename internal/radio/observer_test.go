package radio

import (
	"testing"

	"radiomis/internal/graph"
)

// invariantObserver asserts, on every observed round, the reception-outcome
// invariant successes + collisions + silences == len(listeners), and that
// the per-listener TxNeighbors counts agree with the aggregate tallies.
type invariantObserver struct {
	t      *testing.T
	model  Model
	rounds int
}

func (o *invariantObserver) ObserveRound(s *RoundStats) {
	o.rounds++
	if got := s.Successes + s.Collisions + s.Silences; got != len(s.Listeners) {
		o.t.Errorf("model %v round %d: successes %d + collisions %d + silences %d = %d, want %d listeners",
			o.model, s.Round, s.Successes, s.Collisions, s.Silences, got, len(s.Listeners))
	}
	succ, coll, sil := 0, 0, 0
	for _, rx := range s.Listeners {
		switch {
		case rx.TxNeighbors == 0:
			sil++
			if rx.Outcome != Silence {
				o.t.Errorf("model %v round %d node %d: 0 tx neighbors perceived as %v", o.model, s.Round, rx.ID, rx.Outcome)
			}
		case rx.TxNeighbors == 1:
			succ++
		default:
			coll++
			// The perceived outcome of a physical collision is model
			// dependent: CD reports it, no-CD masks it as silence,
			// beeping ORs it into a beep.
			want := CollisionKind
			switch o.model {
			case ModelNoCD:
				want = Silence
			case ModelBeep:
				want = BeepKind
			}
			if rx.Outcome != want {
				o.t.Errorf("model %v round %d node %d: collision perceived as %v, want %v", o.model, s.Round, rx.ID, rx.Outcome, want)
			}
		}
	}
	if succ != s.Successes || coll != s.Collisions || sil != s.Silences {
		o.t.Errorf("model %v round %d: per-listener tallies (%d,%d,%d) disagree with aggregates (%d,%d,%d)",
			o.model, s.Round, succ, coll, sil, s.Successes, s.Collisions, s.Silences)
	}
}

func (o *invariantObserver) ObserveHalt(int, int64, uint64, uint64) {}

// randomChatter is a program that randomly transmits, listens, and sleeps —
// adversarial input for the reception-outcome classifier.
func randomChatter(env *Env) int64 {
	for i := 0; i < 40; i++ {
		switch env.Rand().Intn(3) {
		case 0:
			env.TransmitBit()
		case 1:
			env.Listen()
		default:
			env.Sleep(uint64(env.Rand().Intn(3) + 1))
		}
	}
	return 0
}

func TestRoundStatsInvariantAcrossModels(t *testing.T) {
	for _, model := range []Model{ModelCD, ModelNoCD, ModelBeep} {
		t.Run(model.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				g := graph.Complete(9)
				o := &invariantObserver{t: t, model: model}
				if _, err := Run(g, Config{Model: model, Seed: seed, Observer: o}, randomChatter); err != nil {
					t.Fatal(err)
				}
				if o.rounds == 0 {
					t.Error("observer saw no rounds")
				}
			}
		})
	}
}

// recordingObserver retains deep copies of every RoundStats and halt.
type recordingObserver struct {
	rounds []RoundStats
	halts  map[int]uint64
}

func (o *recordingObserver) ObserveRound(s *RoundStats) {
	cp := *s
	cp.Transmitters = append([]NodeTx(nil), s.Transmitters...)
	cp.Listeners = append([]NodeRx(nil), s.Listeners...)
	o.rounds = append(o.rounds, cp)
}

func (o *recordingObserver) ObserveHalt(id int, _ int64, _ uint64, round uint64) {
	if o.halts == nil {
		o.halts = make(map[int]uint64)
	}
	o.halts[id] = round
}

func TestObserverReportsOutcomesAndPhases(t *testing.T) {
	// Star with 2 leaves: both leaves transmit while the center listens
	// (collision), then leaf 1 transmits alone (success), then the center
	// listens against silence.
	g := graph.Star(3)
	o := &recordingObserver{}
	_, err := Run(g, Config{Model: ModelCD, Seed: 1, Observer: o}, func(env *Env) int64 {
		switch env.ID() {
		case 0:
			env.Phase("rx")
			env.Listen()
			env.Listen()
			env.Listen()
		case 1:
			env.Phase("tx")
			env.TransmitBit()
			env.TransmitBit()
		case 2:
			env.Phase("tx")
			env.TransmitBit()
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.rounds) != 3 {
		t.Fatalf("observed %d rounds, want 3", len(o.rounds))
	}
	wantOutcome := []struct {
		succ, coll, sil, txn int
		kind                 Kind
	}{
		{succ: 0, coll: 1, sil: 0, txn: 2, kind: CollisionKind},
		{succ: 1, coll: 0, sil: 0, txn: 1, kind: MessageKind},
		{succ: 0, coll: 0, sil: 1, txn: 0, kind: Silence},
	}
	for i, want := range wantOutcome {
		s := o.rounds[i]
		if s.Successes != want.succ || s.Collisions != want.coll || s.Silences != want.sil {
			t.Errorf("round %d: outcomes (%d,%d,%d), want (%d,%d,%d)",
				i, s.Successes, s.Collisions, s.Silences, want.succ, want.coll, want.sil)
		}
		if len(s.Listeners) != 1 || s.Listeners[0].ID != 0 {
			t.Fatalf("round %d: listeners %+v, want center only", i, s.Listeners)
		}
		rx := s.Listeners[0]
		if rx.TxNeighbors != want.txn || rx.Outcome != want.kind {
			t.Errorf("round %d: listener saw txn=%d outcome=%v, want txn=%d outcome=%v",
				i, rx.TxNeighbors, rx.Outcome, want.txn, want.kind)
		}
		if rx.Phase != "rx" {
			t.Errorf("round %d: listener phase %q, want %q", i, rx.Phase, "rx")
		}
		for _, tx := range s.Transmitters {
			if tx.Phase != "tx" {
				t.Errorf("round %d: transmitter %d phase %q, want %q", i, tx.ID, tx.Phase, "tx")
			}
		}
	}
	if len(o.halts) != 3 {
		t.Errorf("observed %d halts, want 3", len(o.halts))
	}
}

func TestPhaseReturnsPreviousLabel(t *testing.T) {
	g := graph.New(1)
	res, err := Run(g, Config{Model: ModelCD, Seed: 1}, func(env *Env) int64 {
		if env.PhaseLabel() != "" {
			return -1
		}
		if prev := env.Phase("a"); prev != "" {
			return -2
		}
		if prev := env.Phase("b"); prev != "a" {
			return -3
		}
		if env.PhaseLabel() != "b" {
			return -4
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 0 {
		t.Errorf("phase bookkeeping check failed with code %d", res.Outputs[0])
	}
}

func TestMultiObserverFansOut(t *testing.T) {
	g := graph.Complete(4)
	a, b := &recordingObserver{}, &recordingObserver{}
	_, err := Run(g, Config{Model: ModelCD, Seed: 2, Observer: MultiObserver{a, b}}, randomChatter)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.rounds) == 0 || len(a.rounds) != len(b.rounds) {
		t.Fatalf("fan-out rounds: %d vs %d (want equal, nonzero)", len(a.rounds), len(b.rounds))
	}
	if len(a.halts) != 4 || len(b.halts) != 4 {
		t.Errorf("fan-out halts: %d and %d, want 4 each", len(a.halts), len(b.halts))
	}
}
