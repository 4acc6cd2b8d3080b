package radio

import (
	"testing"
	"testing/quick"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

// TestEngineQuickRandomPrograms drives the engine with randomized node
// programs (random mixes of transmit/listen/sleep of random lengths on
// random graphs) and checks the structural invariants that must hold for
// any program: the run terminates, energy ≤ rounds per node, rounds
// equals the last awake action, and Result.HaltRound holds exactly the
// halt round the observer saw for every node.
func TestEngineQuickRandomPrograms(t *testing.T) {
	f := func(seed uint64, nRaw, stepsRaw uint8, modelRaw uint8) bool {
		n := int(nRaw%24) + 1
		steps := int(stepsRaw%40) + 1
		model := Model(int(modelRaw%3) + 1)
		g := graph.GNP(n, 0.3, rng.New(seed))

		rec := &recordingObserver{}
		res, err := Run(g, Config{Model: model, Seed: seed, Observer: rec}, func(env *Env) int64 {
			for i := 0; i < steps; i++ {
				switch env.Rand().Intn(3) {
				case 0:
					env.Transmit(env.Rand().Uint64())
				case 1:
					env.Listen()
				default:
					env.Sleep(uint64(env.Rand().Intn(7) + 1))
				}
			}
			return int64(env.Energy())
		})
		if err != nil {
			return false
		}
		var lastActive uint64
		for _, s := range rec.rounds {
			lastActive = s.Round
		}
		if len(rec.rounds) > 0 && res.Rounds != lastActive+1 {
			return false
		}
		if len(rec.halts) != n {
			return false
		}
		for v, hr := range res.HaltRound {
			if got, ok := rec.halts[v]; !ok || got != hr {
				return false
			}
		}
		for v, e := range res.Energy {
			if e > res.Rounds {
				return false
			}
			// The program reported its own energy; it must match the
			// engine's accounting.
			if res.Outputs[v] != int64(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEngineQuickReceptionConsistency checks, for random single-round
// configurations, that every listener's reception matches a direct
// recount of its transmitting neighbors under the model's rule.
func TestEngineQuickReceptionConsistency(t *testing.T) {
	f := func(seed uint64, nRaw uint8, modelRaw uint8, txMask uint16) bool {
		n := int(nRaw%12) + 2
		model := Model(int(modelRaw%3) + 1)
		g := graph.GNP(n, 0.5, rng.New(seed))

		transmits := make([]bool, n)
		for v := 0; v < n; v++ {
			transmits[v] = txMask&(1<<(v%16)) != 0
		}
		res, err := Run(g, Config{Model: model, Seed: seed}, func(env *Env) int64 {
			if transmits[env.ID()] {
				env.Transmit(uint64(env.ID()) + 100)
				return -1
			}
			return int64(env.Listen().Kind)
		})
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if transmits[v] {
				continue
			}
			count := 0
			payload := uint64(0)
			for _, w := range g.Neighbors(v) {
				if transmits[w] {
					count++
					payload = uint64(w) + 100
				}
			}
			want := perceive(model, count, payload)
			if Kind(res.Outputs[v]) != want.Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
