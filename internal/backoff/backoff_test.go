package backoff

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

func TestSlots(t *testing.T) {
	tests := []struct {
		delta int
		want  int
	}{
		{delta: 0, want: 1},
		{delta: 1, want: 1},
		{delta: 2, want: 2},
		{delta: 3, want: 2},
		{delta: 4, want: 2},
		{delta: 5, want: 3},
		{delta: 8, want: 3},
		{delta: 9, want: 4},
		{delta: 1024, want: 10},
		{delta: 1025, want: 11},
	}
	for _, tt := range tests {
		if got := Slots(tt.delta); got != tt.want {
			t.Errorf("Slots(%d) = %d, want %d", tt.delta, got, tt.want)
		}
	}
}

func TestRounds(t *testing.T) {
	if got := Rounds(5, 8); got != 15 {
		t.Errorf("Rounds(5,8) = %d, want 15", got)
	}
	if got := Rounds(0, 8); got != 0 {
		t.Errorf("Rounds(0,8) = %d, want 0", got)
	}
}

// runPair runs sender program on node 0 and receiver program on node 1 of a
// single edge under the no-CD model.
func runPair(t *testing.T, seed uint64, sender, receiver func(env *radio.Env) int64) *radio.Result {
	t.Helper()
	g := graph.New(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := radio.Run(g, radio.Config{Model: radio.ModelNoCD, Seed: seed}, func(env *radio.Env) int64 {
		if env.ID() == 0 {
			return sender(env)
		}
		return receiver(env)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSendEnergyExactlyK(t *testing.T) {
	const k, delta = 7, 64
	res := runPair(t, 1,
		func(env *radio.Env) int64 { Send(env, k, delta, 1); return int64(env.Round()) },
		func(env *radio.Env) int64 { return 0 },
	)
	if res.Energy[0] != k {
		t.Errorf("sender energy = %d, want %d (Lemma 8)", res.Energy[0], k)
	}
	if res.Outputs[0] != int64(Rounds(k, delta)) {
		t.Errorf("sender consumed %d rounds, want %d", res.Outputs[0], Rounds(k, delta))
	}
}

func TestReceiveRoundBudgetExact(t *testing.T) {
	const k, delta = 5, 32
	res := runPair(t, 2,
		func(env *radio.Env) int64 { return 0 },
		func(env *radio.Env) int64 { Receive(env, k, delta, 0); return int64(env.Round()) },
	)
	if res.Outputs[1] != int64(Rounds(k, delta)) {
		t.Errorf("receiver consumed %d rounds, want %d", res.Outputs[1], Rounds(k, delta))
	}
	// No sender: receiver is awake in every listening slot.
	if res.Energy[1] != Rounds(k, delta) {
		t.Errorf("receiver energy with no sender = %d, want %d", res.Energy[1], Rounds(k, delta))
	}
}

func TestReceiveHearsLoneSender(t *testing.T) {
	// A single sender with a single receiver: the receiver must hear it
	// w.h.p. — with k=40 iterations the failure bound (7/8)^40 ≈ 0.005,
	// and in this 1-sender configuration every transmission is collision
	// free, so any listened slot containing the transmission succeeds.
	const k, delta = 40, 16
	heardTrials := 0
	const trials = 50
	for s := uint64(0); s < trials; s++ {
		res := runPair(t, 100+s,
			func(env *radio.Env) int64 { Send(env, k, delta, 77); return 0 },
			func(env *radio.Env) int64 {
				p, ok := ReceivePayload(env, k, delta, 0)
				if ok && p == 77 {
					return 1
				}
				return 0
			},
		)
		heardTrials += int(res.Outputs[1])
	}
	if heardTrials < trials-2 {
		t.Errorf("receiver heard in %d/%d trials; expected near-certain reception", heardTrials, trials)
	}
}

func TestReceiveEarlySleepSavesEnergy(t *testing.T) {
	// With a sender present, the receiver should hear early and sleep: its
	// expected awake rounds are O(Slots) rather than k·Slots.
	const k, delta = 64, 64
	var total uint64
	const trials = 20
	for s := uint64(0); s < trials; s++ {
		res := runPair(t, 200+s,
			func(env *radio.Env) int64 { Send(env, k, delta, 1); return 0 },
			func(env *radio.Env) int64 {
				Receive(env, k, delta, 0)
				return 0
			},
		)
		total += res.Energy[1]
	}
	avg := float64(total) / trials
	full := float64(Rounds(k, delta))
	if avg > full/4 {
		t.Errorf("receiver avg energy %v; expected far below the full budget %v (early sleep)", avg, full)
	}
}

func TestReceiveNoFalsePositives(t *testing.T) {
	const k, delta = 20, 16
	for s := uint64(0); s < 10; s++ {
		res := runPair(t, 300+s,
			func(env *radio.Env) int64 { Idle(env, k, delta); return 0 },
			func(env *radio.Env) int64 {
				if Receive(env, k, delta, 0) {
					return 1
				}
				return 0
			},
		)
		if res.Outputs[1] != 0 {
			t.Fatalf("seed %d: receiver heard a message with no sender", 300+s)
		}
	}
}

// starReceiver runs `senders` transmitting leaves around a listening center
// and reports whether the center heard, plus its energy.
func starReceiver(t *testing.T, seed uint64, senders, k, delta, deltaEst int) (bool, uint64) {
	t.Helper()
	g := graph.Star(senders + 1)
	res, err := radio.Run(g, radio.Config{Model: radio.ModelNoCD, Seed: seed}, func(env *radio.Env) int64 {
		if env.ID() == 0 {
			if Receive(env, k, delta, deltaEst) {
				return 1
			}
			return 0
		}
		Send(env, k, delta, uint64(env.ID()))
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Outputs[0] == 1, res.Energy[0]
}

func TestLemma9SuccessProbability(t *testing.T) {
	// Lemma 9: with 1..Δest senders, Receive succeeds w.p. ≥ 1−(7/8)^k.
	// Empirically check several sender counts with k chosen so the bound
	// is ~0.26 failure; observed failure rate should be at most ~the bound
	// (with slack for sampling noise).
	const k, delta = 10, 64
	bound := math.Pow(7.0/8.0, k) // ≈ 0.263
	for _, senders := range []int{1, 2, 7, 32, 64} {
		fails := 0
		const trials = 300
		for s := 0; s < trials; s++ {
			ok, _ := starReceiver(t, uint64(1000+s*senders), senders, k, delta, 0)
			if !ok {
				fails++
			}
		}
		rate := float64(fails) / trials
		if rate > bound+0.08 {
			t.Errorf("senders=%d: failure rate %v exceeds Lemma 9 bound %v", senders, rate, bound)
		}
	}
}

func TestLemma9GeometricDecayInK(t *testing.T) {
	// Failure rate should drop markedly as k grows.
	const delta, senders = 32, 8
	rate := func(k int) float64 {
		fails := 0
		const trials = 200
		for s := 0; s < trials; s++ {
			ok, _ := starReceiver(t, uint64(5000+s), senders, k, delta, 0)
			if !ok {
				fails++
			}
		}
		return float64(fails) / trials
	}
	r2, r16 := rate(2), rate(16)
	if r16 > r2/2 && r16 > 0.02 {
		t.Errorf("failure rate did not decay with k: k=2 → %v, k=16 → %v", r2, r16)
	}
}

func TestReceiveDeltaEstLimitsListening(t *testing.T) {
	// With Δest ≪ Δ and no senders, the receiver's energy is
	// k·Slots(Δest), not k·Slots(Δ) — the energy saving that the commit
	// mechanism of Algorithm 2 relies on.
	const k, delta, deltaEst = 10, 1024, 8
	_, energy := starReceiver(t, 1, 0, k, delta, deltaEst)
	want := uint64(k * Slots(deltaEst))
	if energy != want {
		t.Errorf("receiver energy = %d, want %d (limited by Δest)", energy, want)
	}
}

func TestSendReceiveStayAligned(t *testing.T) {
	// Sender and receiver running consecutive backoffs stay in lockstep:
	// the second backoff must be heard too.
	const k, delta = 30, 16
	res := runPair(t, 7,
		func(env *radio.Env) int64 {
			Send(env, k, delta, 5)
			Send(env, k, delta, 6)
			return 0
		},
		func(env *radio.Env) int64 {
			p1, ok1 := ReceivePayload(env, k, delta, 0)
			p2, ok2 := ReceivePayload(env, k, delta, 0)
			if ok1 && ok2 && p1 == 5 && p2 == 6 {
				return 1
			}
			return 0
		},
	)
	if res.Outputs[1] != 1 {
		t.Error("consecutive backoffs lost alignment or payloads")
	}
}

func TestDecayBaselineEnergy(t *testing.T) {
	// Traditional Decay keeps both sides awake for the full duration.
	const k, delta = 6, 32
	res := runPair(t, 8,
		func(env *radio.Env) int64 { DecaySend(env, k, delta, 1); return 0 },
		func(env *radio.Env) int64 {
			if DecayReceive(env, k, delta) {
				return 1
			}
			return 0
		},
	)
	full := Rounds(k, delta)
	if res.Energy[0] != full {
		t.Errorf("decay sender energy = %d, want %d", res.Energy[0], full)
	}
	if res.Energy[1] != full {
		t.Errorf("decay receiver energy = %d, want %d", res.Energy[1], full)
	}
	if res.Outputs[1] != 1 {
		t.Error("decay receiver failed to hear lone sender across 6 iterations")
	}
}

func TestDecayReceiveHearsUnderContention(t *testing.T) {
	g := graph.Star(9)
	heard := 0
	const trials = 50
	for s := 0; s < trials; s++ {
		res, err := radio.Run(g, radio.Config{Model: radio.ModelNoCD, Seed: uint64(9000 + s)}, func(env *radio.Env) int64 {
			if env.ID() == 0 {
				if DecayReceive(env, 20, 8) {
					return 1
				}
				return 0
			}
			DecaySend(env, 20, 8, 1)
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		heard += int(res.Outputs[0])
	}
	if heard < trials*9/10 {
		t.Errorf("decay heard in %d/%d trials under contention", heard, trials)
	}
}

func TestIdleConsumesExactBudgetAndNoEnergy(t *testing.T) {
	res := runPair(t, 9,
		func(env *radio.Env) int64 { Idle(env, 5, 16); return int64(env.Round()) },
		func(env *radio.Env) int64 { return 0 },
	)
	if res.Outputs[0] != int64(Rounds(5, 16)) {
		t.Errorf("Idle consumed %d rounds, want %d", res.Outputs[0], Rounds(5, 16))
	}
	if res.Energy[0] != 0 {
		t.Errorf("Idle spent %d energy, want 0", res.Energy[0])
	}
}

func TestReceiveNoEarlySleepFullBudget(t *testing.T) {
	// The ablation variant must stay awake for its whole listening budget
	// even with a sender present, unlike Receive.
	const k, delta = 20, 64
	res := runPair(t, 21,
		func(env *radio.Env) int64 { Send(env, k, delta, 1); return 0 },
		func(env *radio.Env) int64 {
			if ReceiveNoEarlySleep(env, k, delta, 0) {
				return 1
			}
			return 0
		},
	)
	if res.Outputs[1] != 1 {
		t.Error("no-early-sleep receiver missed the sender")
	}
	want := uint64(k * Slots(delta))
	if res.Energy[1] != want {
		t.Errorf("receiver energy = %d, want full budget %d", res.Energy[1], want)
	}
}

func TestReceiveNoEarlySleepRoundBudgetExact(t *testing.T) {
	const k, delta, deltaEst = 5, 64, 8
	res := runPair(t, 22,
		func(env *radio.Env) int64 { return 0 },
		func(env *radio.Env) int64 {
			ReceiveNoEarlySleep(env, k, delta, deltaEst)
			return int64(env.Round())
		},
	)
	if res.Outputs[1] != int64(Rounds(k, delta)) {
		t.Errorf("consumed %d rounds, want %d", res.Outputs[1], Rounds(k, delta))
	}
	if res.Energy[1] != uint64(k*Slots(deltaEst)) {
		t.Errorf("energy = %d, want k·Slots(Δest) = %d", res.Energy[1], k*Slots(deltaEst))
	}
}

// receiveSlotBySlot is ReceivePayload as one Listen per slot: the
// definition its ListenFor runs must reproduce.
func receiveSlotBySlot(env *radio.Env, k, delta, deltaEst int) (uint64, bool) {
	defer restorePhase(env, claimPhase(env, "rec-ebackoff"))
	if deltaEst <= 0 || deltaEst > delta {
		deltaEst = delta
	}
	slots := Slots(delta)
	listenSlots := min(Slots(deltaEst), slots)
	heard := false
	var payload uint64
	for i := 0; i < k; i++ {
		j := 0
		for ; !heard && j < listenSlots; j++ {
			if r := env.Listen(); r.Kind == radio.MessageKind {
				heard, payload = true, r.Payload
				j++
				break
			}
		}
		env.Sleep(uint64(slots - j))
	}
	return payload, heard
}

func TestReceiveMatchesSlotBySlot(t *testing.T) {
	// On a random graph where each node sends or receives in each of
	// several backoffs, ReceivePayload must give exactly the Result of
	// slot-by-slot listening in every model: outputs, energy, halt rounds
	// and round count. Δest below Δ listens in one window per iteration;
	// CD collisions and beeps end a ListenFor but not the listening.
	type receiver func(env *radio.Env, k, delta, deltaEst int) (uint64, bool)
	program := func(recv receiver) radio.Program {
		return func(env *radio.Env) int64 {
			const delta = 16
			acc := uint64(env.ID())
			for b := 0; b < 6; b++ {
				k := 1 + env.Rand().Intn(6)
				if env.Rand().Intn(3) == 0 {
					Send(env, k, delta, uint64(env.ID()+1))
					continue
				}
				p, ok := recv(env, k, delta, []int{0, 2, 4, 16}[env.Rand().Intn(4)])
				acc = acc*31 + p
				if ok {
					acc++
				}
			}
			return int64(acc)
		}
	}
	g := graph.GNP(60, 0.1, rng.New(3))
	for _, model := range []radio.Model{radio.ModelCD, radio.ModelNoCD, radio.ModelBeep} {
		for seed := uint64(0); seed < 4; seed++ {
			cfg := radio.Config{Model: model, Seed: seed}
			want, err := radio.Run(g, cfg, program(receiveSlotBySlot))
			if err != nil {
				t.Fatal(err)
			}
			got, err := radio.Run(g, cfg, program(ReceivePayload))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v seed %d: ReceivePayload diverges from slot-by-slot listening", model, seed)
			}
		}
	}
}

// sendSlotBySlot is Send as a Sleep and a Transmit per slot: the
// definition its transmit runs must reproduce.
func sendSlotBySlot(env *radio.Env, k, delta int, payload uint64) {
	defer restorePhase(env, claimPhase(env, "snd-ebackoff"))
	slots := Slots(delta)
	for i := 0; i < k; i++ {
		x := rng.GeometricHalf(env.Rand())
		if x > slots {
			x = slots
		}
		env.Sleep(uint64(x - 1))
		env.Transmit(payload)
		env.Sleep(uint64(slots - x))
	}
}

func TestSendMatchesSlotBySlot(t *testing.T) {
	// On a random graph where each node sends or receives in each of
	// several backoffs, Send must give exactly the Result and observer
	// stream of slot-by-slot sending in every model: the receivers'
	// receptions (in their outputs), energy, halt rounds and round count.
	// The Δ values give 1, 2, 4 and 20 slots, so a backoff is one run or
	// several (63, 31, 15 and 3 iterations a run), and k reaches past the
	// first run.
	type sender func(env *radio.Env, k, delta int, payload uint64)
	program := func(send sender) radio.Program {
		return func(env *radio.Env) int64 {
			acc := uint64(env.ID())
			for b := 0; b < 5; b++ {
				delta := []int{1, 3, 16, 1 << 20}[env.Rand().Intn(4)]
				k := 1 + env.Rand().Intn(80)
				if env.Rand().Intn(2) == 0 {
					send(env, k, delta, uint64(env.ID()+1))
					continue
				}
				p, ok := ReceivePayload(env, k, delta, 0)
				acc = acc*31 + p
				if ok {
					acc++
				}
			}
			return int64(acc)
		}
	}
	g := graph.GNP(60, 0.1, rng.New(5))
	for _, model := range []radio.Model{radio.ModelCD, radio.ModelNoCD, radio.ModelBeep} {
		for seed := uint64(0); seed < 4; seed++ {
			wantObs, gotObs := &roundRecorder{}, &roundRecorder{}
			want, err := radio.Run(g, radio.Config{Model: model, Seed: seed, Observer: wantObs}, program(sendSlotBySlot))
			if err != nil {
				t.Fatal(err)
			}
			got, err := radio.Run(g, radio.Config{Model: model, Seed: seed, Observer: gotObs}, program(Send))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v seed %d: Send diverges from slot-by-slot sending", model, seed)
			}
			if !reflect.DeepEqual(gotObs, wantObs) {
				t.Fatalf("%v seed %d: Send's observer stream diverges from slot-by-slot sending", model, seed)
			}
		}
	}
}

// roundRecorder keeps every observed round's transmitters and listener
// outcomes.
type roundRecorder struct {
	rounds []string
}

func (o *roundRecorder) ObserveRound(s *radio.RoundStats) {
	o.rounds = append(o.rounds, fmt.Sprintf("%d %v %v", s.Round, s.Transmitters, s.Listeners))
}

func (o *roundRecorder) ObserveHalt(id int, output int64, energy, round uint64) {
	o.rounds = append(o.rounds, fmt.Sprintf("halt %d %d %d %d", id, output, energy, round))
}
