// Package lowerbound implements the experimental apparatus for Theorem 1:
// in radio networks with collision detection, any algorithm that solves MIS
// with probability more than e^(−1/4) needs at least ½·log₂ n energy.
//
// The proof's hard instance is the anonymous graph made of n/4 disjoint
// edges and n/2 isolated nodes. An isolated node that hears nothing must
// join the MIS (by symmetry it cannot distinguish itself from a matched
// node whose partner stayed silent), so for every matched pair at least one
// endpoint must successfully hear the other — and with an energy budget of
// b awake rounds, a pair fails to communicate with probability at least
// 4^(−b), giving overall failure probability at least 1 − e^(−n/4^(b+1)).
//
// Two experimental probes mirror the proof:
//
//   - Oblivious strategies: each node samples a random awake schedule of b
//     rounds (each transmit or listen), exactly the strategy space the
//     proof's probabilistic argument quantifies over.
//   - Truncated Algorithm 1: the real CD algorithm forced to stop spending
//     energy after b awake rounds, showing the same failure threshold at
//     b ≈ ½·log₂ n from above.
package lowerbound

import (
	"context"
	"fmt"
	"math"

	"radiomis/internal/graph"
	"radiomis/internal/harness"
	"radiomis/internal/mis"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// AnalyticBound returns the proof's failure-probability lower bound
// 1 − e^(−n/4^(b+1)) for network size n and per-node energy budget b.
func AnalyticBound(n, b int) float64 {
	return 1 - math.Exp(-float64(n)/math.Pow(4, float64(b+1)))
}

// MinimumEnergy returns the Theorem 1 threshold ½·log₂ n below which any
// algorithm fails with constant probability.
func MinimumEnergy(n int) float64 {
	return 0.5 * math.Log2(float64(n))
}

// Config parameterizes a lower-bound measurement.
type Config struct {
	// Ctx, when non-nil, bounds the measurement and carries the harness's
	// telemetry, tracing and progress sinks: cancellation aborts the trials
	// (and the in-flight simulations) with the context's error.
	Ctx context.Context

	// NoCD runs the probe in the no-CD model instead of CD. Theorem 1's
	// bound applies to both models (no-CD is strictly weaker, so the CD
	// lower bound carries over); the measured failure rates in no-CD are
	// at least as high.
	NoCD bool

	// N is the network size (rounded down to a multiple of 4 to build the
	// n/4-matching + n/2-isolated graph).
	N int
	// Budget is the per-node energy budget b (awake rounds).
	Budget int
	// Trials is the number of independent runs to average over (≥ 1).
	Trials int
	// Seed derives per-trial seeds (harness.Options.Seed).
	Seed uint64
}

// model returns the radio model selected by the config.
func (c Config) model() radio.Model {
	if c.NoCD {
		return radio.ModelNoCD
	}
	return radio.ModelCD
}

// ctx returns the config's context, defaulting to context.Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c Config) validate() error {
	switch {
	case c.N < 4:
		return fmt.Errorf("lowerbound: N = %d, want ≥ 4", c.N)
	case c.Budget < 1:
		return fmt.Errorf("lowerbound: Budget = %d, want ≥ 1", c.Budget)
	default:
		return nil
	}
}

// obliviousProgram builds the strategy-space program of the proof: b awake
// rounds placed uniformly over a horizon of 2·b rounds, each independently
// a transmit or a listen. The program reports whether the node heard a
// neighbor — the event whose absence, at both endpoints of a matched pair,
// forces both to join the MIS and thereby fail (the exact event the
// proof's 4^(−b) bound quantifies).
func obliviousProgram(budget int) radio.Program {
	horizon := 2 * budget
	return func(env *radio.Env) int64 {
		awake := make([]bool, horizon)
		for _, s := range env.Rand().Perm(horizon)[:budget] {
			awake[s] = true
		}
		heard := false
		asleep := uint64(0) // rounds since the last awake one, not yet slept
		for _, on := range awake {
			if !on {
				asleep++
				continue
			}
			env.Sleep(asleep)
			asleep = 0
			if rng.Bool(env.Rand()) {
				env.TransmitBit()
			} else if env.Listen().Heard() {
				heard = true
			}
		}
		env.Sleep(asleep)
		if heard {
			return 1
		}
		return 0
	}
}

// truncatedCDProgram is Algorithm 1 with a hard per-node energy cap: before
// every awake action the node checks its remaining budget, and once the
// budget is spent it decides immediately by the proof's forced rule — join
// iff it never heard a neighbor — and sleeps forever.
func truncatedCDProgram(p mis.Params, budget uint64) radio.Program {
	l := p.LubyPhases()
	b := p.RankBits()
	return func(env *radio.Env) int64 {
		heardEver := false
		outOfBudget := func() bool { return env.Energy() >= budget }
		forced := func() int64 {
			if heardEver {
				return int64(mis.StatusOutMIS)
			}
			return int64(mis.StatusInMIS)
		}
		for i := 0; i < l; i++ {
			won := true
			for j := 0; j < b; j++ {
				if outOfBudget() {
					return forced()
				}
				if rng.Bool(env.Rand()) {
					env.TransmitBit()
					continue
				}
				if env.Listen().Heard() {
					heardEver = true
					env.Sleep(uint64(b - j - 1))
					won = false
					break
				}
			}
			if outOfBudget() {
				return forced()
			}
			if won {
				env.TransmitBit()
				return int64(mis.StatusInMIS)
			}
			if env.Listen().Heard() {
				heardEver = true
				return int64(mis.StatusOutMIS)
			}
		}
		return int64(mis.StatusUndecided)
	}
}

// FailureProbTruncatedCD measures the fraction of trials in which
// energy-capped Algorithm 1 fails to output a valid MIS on the Theorem 1
// graph. Trials run on harness.Repeat, seeded from Seed^0x5bd1.
func FailureProbTruncatedCD(cfg Config) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	p := mis.ParamsDefault(cfg.N, 1)
	agg, err := harness.Repeat(cfg.ctx(), harness.Options{Trials: cfg.Trials, Seed: cfg.Seed ^ 0x5bd1},
		func(ctx context.Context, seed uint64) (harness.Metrics, error) {
			g := graph.LowerBoundGraph(cfg.N, rng.New(seed))
			rr, err := radio.Run(g, radio.Config{Model: cfg.model(), Ctx: ctx, Seed: seed},
				truncatedCDProgram(p, uint64(cfg.Budget)))
			if err != nil {
				return nil, err
			}
			fail := 1.0
			if validMISOutputs(g, rr) {
				fail = 0
			}
			return harness.Metrics{"fail": fail}, nil
		})
	if err != nil {
		return 0, fmt.Errorf("lowerbound: truncated: %w", err)
	}
	return agg.Mean("fail"), nil
}

// FailureProbOblivious measures the fraction of trials in which some
// matched pair of the Theorem 1 graph never communicates in either
// direction under oblivious b-budget strategies — the event that forces
// both endpoints into the MIS and breaks independence. This is the
// empirical counterpart of the proof's 1 − e^(−n/4^(b+1)) bound. Trials
// run on harness.Repeat, seeded from Seed.
func FailureProbOblivious(cfg Config) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	agg, err := harness.Repeat(cfg.ctx(), harness.Options{Trials: cfg.Trials, Seed: cfg.Seed},
		func(ctx context.Context, seed uint64) (harness.Metrics, error) {
			g := graph.LowerBoundGraph(cfg.N, rng.New(seed))
			rr, err := radio.Run(g, radio.Config{Model: cfg.model(), Ctx: ctx, Seed: seed},
				obliviousProgram(cfg.Budget))
			if err != nil {
				return nil, err
			}
			fail := 0.0
			for _, e := range g.Edges() {
				if rr.Outputs[e[0]] == 0 && rr.Outputs[e[1]] == 0 {
					fail = 1
					break
				}
			}
			return harness.Metrics{"fail": fail}, nil
		})
	if err != nil {
		return 0, fmt.Errorf("lowerbound: oblivious: %w", err)
	}
	return agg.Mean("fail"), nil
}

// validMISOutputs reports whether a raw run's outputs form a valid MIS.
func validMISOutputs(g *graph.Graph, rr *radio.Result) bool {
	inSet := make([]bool, g.N())
	for v, out := range rr.Outputs {
		switch mis.Status(out) {
		case mis.StatusInMIS:
			inSet[v] = true
		case mis.StatusOutMIS:
		default:
			return false
		}
	}
	return graph.CheckMIS(g, inSet) == nil
}
