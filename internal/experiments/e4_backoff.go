package experiments

import (
	"context"
	"fmt"
	"math"

	"radiomis/internal/backoff"
	"radiomis/internal/graph"
	"radiomis/internal/harness"
	"radiomis/internal/radio"
	"radiomis/internal/texttable"
)

// E4Backoff reproduces Lemmas 8 and 9: the energy-efficient backoffs'
// exact budgets (sender awake exactly k rounds, receiver at most
// k·⌈log₂ Δest⌉) and the reception guarantee — a receiver with 1..Δest
// sending neighbors hears one with probability at least 1 − (7/8)^k.
func E4Backoff(ctx context.Context, cfg Config) (*Report, error) {
	const delta = 64
	t := trials(cfg, 60, 400)

	report := &Report{
		ID:    "E4",
		Title: "Lemmas 8–9: backoff budgets and success probability",
		Claim: "Snd-EBackoff awake exactly k rounds; Rec-EBackoff hears a sender w.p. ≥ 1 − (7/8)^k (Lemmas 8–9)",
		Notes: []string{
			"sender energy must equal k exactly; receiver energy with no sender equals the full budget",
			"measured failure rates must sit at or below the (7/8)^k bound for every sender count ≤ Δ",
		},
	}

	budget := texttable.New("k", "Δ", "rounds T_B", "sender energy", "receiver energy (no sender)")
	for _, k := range []int{1, 4, 16, 64} {
		senderEnergy, receiverEnergy, rounds, err := backoffBudgets(ctx, cfg.Seed, k, delta)
		if err != nil {
			return nil, fmt.Errorf("experiments: e4 budgets k=%d: %w", k, err)
		}
		budget.AddRow(k, delta, rounds, senderEnergy, receiverEnergy)
		report.AddValue("backoff/budget", float64(k), "rounds", float64(rounds))
		report.AddValue("backoff/budget", float64(k), "senderEnergy", float64(senderEnergy))
		report.AddValue("backoff/budget", float64(k), "receiverEnergy", float64(receiverEnergy))
	}

	success := texttable.New("k", "senders", "measured fail", "bound (7/8)^k")
	for _, k := range []int{2, 4, 8, 16} {
		for _, senders := range []int{1, 4, 16, 64} {
			agg, err := harness.Repeat(ctx, harness.Options{Trials: t, Seed: cfg.Seed, SeedOffset: k*1000 + senders*10},
				starBackoffTrial(senders, k, delta))
			if err != nil {
				return nil, fmt.Errorf("experiments: e4 k=%d senders=%d: %w", k, senders, err)
			}
			fail := agg.Mean("fail")
			success.AddRow(k, senders, fail, math.Pow(7.0/8.0, float64(k)))
			series := fmt.Sprintf("backoff/fail/senders=%d", senders)
			report.AddValue(series, float64(k), "measuredFail", fail)
			report.AddValue(series, float64(k), "bound", math.Pow(7.0/8.0, float64(k)))
		}
	}

	report.Tables = []*texttable.Table{budget, success}
	return report, nil
}

// backoffBudgets measures exact budgets on a 2-node graph with a silent
// partner (so the receiver never hears and pays its full budget).
func backoffBudgets(ctx context.Context, seed uint64, k, delta int) (senderEnergy, receiverEnergy, rounds uint64, err error) {
	g := graph.New(2)
	// No edge: both run against silence.
	rr, err := radio.Run(g, radio.Config{Model: radio.ModelNoCD, Ctx: ctx, Seed: seed}, func(env *radio.Env) int64 {
		if env.ID() == 0 {
			backoff.Send(env, k, delta, 1)
		} else {
			backoff.Receive(env, k, delta, 0)
		}
		return int64(env.Round())
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return rr.Energy[0], rr.Energy[1], uint64(rr.Outputs[0]), nil
}

// starBackoffTrial runs `senders` transmitting leaves around a listening
// center. Its "fail" metric is 1 when the center heard none of them.
func starBackoffTrial(senders, k, delta int) harness.TrialFunc {
	return func(ctx context.Context, seed uint64) (harness.Metrics, error) {
		g := graph.Star(senders + 1)
		rr, err := radio.Run(g, radio.Config{Model: radio.ModelNoCD, Ctx: ctx, Seed: seed}, func(env *radio.Env) int64 {
			if env.ID() == 0 {
				if backoff.Receive(env, k, delta, 0) {
					return 1
				}
				return 0
			}
			backoff.Send(env, k, delta, 1)
			return 0
		})
		if err != nil {
			return nil, err
		}
		return harness.Metrics{"fail": float64(1 - rr.Outputs[0])}, nil
	}
}
