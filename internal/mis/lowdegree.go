package mis

import (
	"radiomis/internal/backoff"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// LowDegreeMIS is the §4.2 subroutine: a no-CD MIS algorithm whose round
// and energy budgets are O(log² n · log Δ) for a degree bound Δ — which is
// O(log² n · log log n) when invoked on the committed subgraph of maximum
// degree d̂ = κ log n (Corollary 13).
//
// Davies' full construction is only sketched in the paper; this
// implementation preserves its interface, budget shape, and guarantees by
// simulating Ghaffari-style desire-level phases over Decay (see DESIGN.md,
// "Substitutions"). Each of the P = Θ(log n) phases simulates one
// mark/join/notify round of a desire-level MIS:
//
//  1. Marking: every undecided participant marks itself with its current
//     desire probability p_v (initially 1/2).
//  2. Exchange (kx = Θ(log n) Decay iterations of Θ(log Δ) slots): a marked
//     node transmits in one geometrically-chosen slot per iteration and
//     listens in the others; unmarked nodes listen until they first hear a
//     mark. Hearing a mark means a neighbor is marked.
//  3. Join: a marked node that heard no mark joins the MIS.
//  4. Announce (kx Decay iterations): MIS members transmit; undecided nodes
//     listen (Rec-EBackoff-style) and leave as out-MIS when they hear.
//  5. Desire update: p_v halves if the node heard marking pressure this
//     phase and doubles (capped at 1/2) otherwise.
//
// The procedure consumes exactly LowDegreeRounds(p, dHat) rounds in every
// branch, which is what lets Algorithm 2 keep all nodes aligned while a
// subset runs it. It returns the node's status after the last phase
// (StatusUndecided in the rare case the phase budget was insufficient).

// lowDegreeEffectiveDegree clamps the degree bound so each Decay iteration
// has at least two slots — with a single slot, two adjacent marked nodes
// could transmit simultaneously forever and never detect one another.
func lowDegreeEffectiveDegree(dHat int) int {
	if dHat < 3 {
		return 3
	}
	return dHat
}

// LowDegreeRounds returns the exact round budget of a LowDegreeMIS call
// with degree bound dHat under parameters p: P · 2 · kx · ⌈log₂ d̂⌉.
func LowDegreeRounds(p Params, dHat int) uint64 {
	slots := backoff.Slots(lowDegreeEffectiveDegree(dHat))
	phases := uint64(p.ghaffariPhaseCount())
	kx := uint64(p.exchangeReps())
	return phases * 2 * kx * uint64(slots)
}

// lowDegreeMIS runs the subroutine for one participant starting undecided.
// Non-participants must sleep LowDegreeRounds(p, dHat) instead of calling
// it. It consumes exactly that many rounds.
func lowDegreeMIS(env *radio.Env, p Params, dHat int) Status {
	// Label the span for Observer attribution unless the caller (Algorithm
	// 2) already did; inner backoffs see the label set and leave it alone.
	if env.PhaseLabel() == "" {
		env.Phase("low-degree")
		defer env.Phase("")
	}
	d := lowDegreeEffectiveDegree(dHat)
	slots := backoff.Slots(d)
	phases := p.ghaffariPhaseCount()
	kx := p.exchangeReps()
	blockRounds := uint64(kx) * uint64(slots)

	status := StatusUndecided
	desire := 0.5
	for ph := 0; ph < phases; ph++ {
		switch status {
		case StatusUndecided:
			marked := env.Rand().Float64() < desire
			var heardMark bool
			if marked {
				heardMark = exchangeMarked(env, kx, slots)
			} else {
				heardMark = backoff.Receive(env, kx, d, d)
			}
			if marked && !heardMark {
				status = StatusInMIS
				backoff.Send(env, kx, d, 1) // announce immediately
			} else {
				if backoff.Receive(env, kx, d, d) {
					status = StatusOutMIS
				}
			}
			if heardMark {
				desire /= 2
			} else if desire < 0.5 {
				desire *= 2
				if desire > 0.5 {
					desire = 0.5
				}
			}
		case StatusInMIS:
			// Keep announcing so stragglers can still leave; skip the
			// exchange (an MIS member no longer competes).
			env.Sleep(blockRounds)
			backoff.Send(env, kx, d, 1)
		default: // StatusOutMIS
			env.Sleep(2 * blockRounds)
		}
	}
	return status
}

// exchangeMarked runs one exchange block for a marked node: in each of the
// kx iterations it transmits its mark in a geometrically-chosen slot and
// listens in the earlier slots (sleeping once it has already heard a mark,
// and sleeping the tail of each iteration — the Snd-EBackoff energy
// pattern with opportunistic listening). It reports whether a neighboring
// mark was heard.
func exchangeMarked(env *radio.Env, kx, slots int) bool {
	heard := false
	for i := 0; i < kx; i++ {
		x := rng.GeometricHalf(env.Rand())
		if x > slots {
			x = slots
		}
		for j := 1; j <= slots; j++ {
			switch {
			case j == x:
				env.Transmit(1)
			case !heard:
				if env.Listen().Kind == radio.MessageKind {
					heard = true
				}
			default:
				env.Sleep(1)
			}
		}
	}
	return heard
}

// LowDegreeProgram returns a standalone node program that runs LowDegreeMIS
// on the whole graph with degree bound p.Delta — the round-improved
// Davies-style algorithm of §4.2, used as the best-known-prior baseline
// (O(log² n · log Δ) rounds and energy on arbitrary graphs).
func LowDegreeProgram(p Params) radio.Program {
	return func(env *radio.Env) int64 {
		return int64(lowDegreeMIS(env, p, p.Delta))
	}
}
