package radio

import (
	"testing"

	"radiomis/internal/graph"
)

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

// TestNilObserverAddsNoAllocs guards the observability layer's opt-in-free
// promise: with no Observer attached, the coordinator hot path must not
// allocate per round (Result.HaltRound is one slice per run). It measures
// whole-run allocations at two round counts; the difference isolates the
// steady-state per-round cost from the fixed per-run setup (goroutines,
// envs, buffers).
func TestNilObserverAddsNoAllocs(t *testing.T) {
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
		t.Errorf("coordinator allocates %.4f objects/round with nil observer (run deltas: %v -> %v), want 0",
			perRound, base, long)
	}
}
