package radio

import (
	"testing"
	"unsafe"

	"radiomis/internal/graph"
)

// TestEnvSize pins an Env at 160 bytes, a malloc size class: every node of
// every run allocates one, and at 168 bytes it would take the 176-byte
// class. Env.k shares a word with fast and ref to leave room for src.
func TestEnvSize(t *testing.T) {
	if got := unsafe.Sizeof(Env{}); got != 160 {
		t.Fatalf("Env is %d bytes, want 160", got)
	}
}

// chatterProgram returns a program whose nodes alternate transmit/listen
// deterministically for the given number of awake rounds.
func chatterProgram(rounds int) Program {
	return func(env *Env) int64 {
		for i := 0; i < rounds; i++ {
			if (env.ID()+i)%2 == 0 {
				env.TransmitBit()
			} else {
				env.Listen()
			}
		}
		return 0
	}
}

// runsProgram returns a program in which node 0 listens for the given
// number of rounds while the other three nodes of Complete(4) transmit in
// 63-round runs, one of them each round, so the listener hears a message
// in every round from transmits the scheduler served whole.
func runsProgram(rounds int) Program {
	return func(env *Env) int64 {
		if env.ID() == 0 {
			for i := 0; i < rounds; i++ {
				env.Listen()
			}
			return 0
		}
		var mask uint64
		for i := env.ID() - 1; i < maxRunSpan; i += 3 {
			mask |= 1 << i
		}
		for env.Round() < uint64(rounds) {
			env.TransmitRun(mask, maxRunSpan, 1)
		}
		return 0
	}
}

// TestNilObserverAddsNoAllocs guards the observability layer's opt-in-free
// promise: with no Observer attached, the coordinator hot path must not
// allocate per round (Result.HaltRound is one slice per run). It measures
// whole-run allocations at two round counts; the difference isolates the
// steady-state per-round cost from the fixed per-run setup (goroutines,
// envs, buffers). It does so for single transmits and listens, and for
// transmit runs, which this path serves whole.
func TestNilObserverAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	g := graph.Complete(4)
	const extra = 4096
	for name, program := range map[string]func(int) Program{"chatter": chatterProgram, "runs": runsProgram} {
		measure := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				res, err := Run(g, Config{Model: ModelCD, Seed: 1}, program(rounds))
				if err != nil {
					t.Fatal(err)
				}
				if res.Rounds < uint64(rounds) {
					t.Fatalf("%s: run of %d rounds ended at round %d", name, rounds, res.Rounds)
				}
			})
		}
		base := measure(64)
		long := measure(64 + extra)
		perRound := (long - base) / extra
		if perRound > 0.01 {
			t.Errorf("%s: coordinator allocates %.4f objects/round with nil observer (run deltas: %v -> %v), want 0",
				name, perRound, base, long)
		}
	}
}
