package radio_test

import (
	"math"
	"math/rand"
	"testing"

	"radiomis/internal/backoff"
	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// streamDraws makes a fixed mix of draws: Intn, Float64 and rng.Bits from
// r, a word from src, and k-iteration backoffs through send. It returns a
// hash of everything it drew, whose low bit is clear.
func streamDraws(r *rand.Rand, send func(k, delta int), src func() uint64) uint64 {
	h := uint64(14695981039346656037)
	add := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for step := 0; step < 6; step++ {
		add(uint64(r.Intn(1000)))
		add(math.Float64bits(r.Float64()))
		for _, b := range rng.Bits(r, 70) {
			if b {
				add(1)
			} else {
				add(2)
			}
		}
		k := 1 + r.Intn(40)
		send(k, []int{3, 16, 1 << 20}[r.Intn(3)])
		add(src())
	}
	return h &^ 1
}

// replayDraws makes streamDraws' draws on one rng.ForNode-shaped stream,
// with each backoff's draws as Snd-EBackoff defines them: k GeometricHalf
// calls.
func replayDraws(r *rand.Rand) uint64 {
	return streamDraws(r, func(k, _ int) {
		for i := 0; i < k; i++ {
			rng.GeometricHalf(r)
		}
	}, r.Uint64)
}

func TestRandAndSourceAreOneStream(t *testing.T) {
	// Env.Rand() wraps Env.Source(), so a program that mixes backoff.Send
	// (which draws through the source) with Rand's Intn, Float64 and
	// rng.Bits, and with Source().Uint64, draws exactly the one stream
	// rng.ForNode(seed, id) gives, on a first life, and on a life rebooted
	// after a crash, whose stream is reseeded with the life salt. The
	// output's low bit marks a rebooted life (one that did not start in
	// round 0).
	program := func(env *radio.Env) int64 {
		restarted := uint64(0)
		if env.Round() > 0 {
			restarted = 1
		}
		h := streamDraws(env.Rand(), func(k, delta int) {
			backoff.Send(env, k, delta, 1)
		}, env.Source().Uint64)
		return int64(h | restarted)
	}
	g := graph.GNP(40, 0.15, rng.New(9))
	clean := radio.Config{Model: radio.ModelNoCD, Seed: 5}
	crashy := clean
	crashy.Faults = faults.Profile{Crash: faults.Crash{Rate: 0.004, RestartAfter: 3, MaxRestarts: 1}}
	firstLives, rebooted := 0, 0
	for _, cfg := range []radio.Config{clean, crashy} {
		res, err := radio.Run(g, cfg, program)
		if err != nil {
			t.Fatal(err)
		}
		for id, out := range res.Outputs {
			if res.Crashed != nil && res.Crashed[id] {
				continue
			}
			seed := cfg.Seed
			if out&1 == 1 {
				// MaxRestarts 1: a surviving rebooted node is on its
				// second life.
				seed = rng.Mix(cfg.Seed, radio.LifeSalt)
				rebooted++
			} else {
				firstLives++
			}
			if want := replayDraws(rng.ForNode(seed, id)); uint64(out)&^1 != want {
				t.Fatalf("crash rate %v: node %d drew %#x, one stream gives %#x", cfg.Faults.Crash.Rate, id, uint64(out)&^1, want)
			}
		}
	}
	if firstLives == 0 || rebooted == 0 {
		t.Fatalf("checked %d first lives and %d rebooted ones; want both", firstLives, rebooted)
	}
}
