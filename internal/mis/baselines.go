package mis

import (
	"radiomis/internal/backoff"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// NaiveCDProgram is the "somewhat straightforward implementation of Luby
// for radio networks" of §1.3: the same bit-by-bit competition as
// Algorithm 1, but without the energy optimization — an undecided node
// stays awake for every round of every phase it participates in (losers
// keep listening instead of sleeping out the phase). Its round complexity
// matches Algorithm 1 (O(log² n)) but its energy complexity is O(log² n)
// rather than O(log n), which is exactly the gap experiment E6 measures.
func NaiveCDProgram(p Params) radio.Program {
	l := p.LubyPhases()
	b := p.RankBits()
	return func(env *radio.Env) int64 {
		for i := 0; i < l; i++ {
			inContention := true
			won := true
			for j := 0; j < b; j++ {
				if inContention && rng.Bool(env.Rand()) {
					env.TransmitBit()
					continue
				}
				if env.Listen().Heard() && inContention {
					// Knocked out, but the naive node keeps listening
					// through the rest of the phase instead of sleeping.
					inContention = false
					won = false
				}
			}
			if won {
				env.TransmitBit()
				return int64(StatusInMIS)
			}
			if env.Listen().Heard() {
				return int64(StatusOutMIS)
			}
		}
		return int64(StatusUndecided)
	}
}

// NaiveNoCDProgram simulates Algorithm 1 in the no-CD model the naive way
// (§1.3, §5.1): every CD round is replaced by a full traditional-Decay
// backoff of k = ⌈C′ log n⌉ iterations so that each simulated round
// succeeds w.h.p. Nodes stay awake for entire backoffs (senders and
// receivers alike), which blows both the round and the energy complexity up
// by a Θ(log n log Δ) factor — the O(log⁴ n) baseline the paper quotes.
func NaiveNoCDProgram(p Params) radio.Program {
	l := p.LubyPhases()
	b := p.RankBits()
	k := p.BackoffReps()
	delta := p.Delta
	tb := backoff.Rounds(k, delta)
	return func(env *radio.Env) int64 {
		for i := 0; i < l; i++ {
			won := true
			for j := 0; j < b; j++ {
				if rng.Bool(env.Rand()) {
					backoff.DecaySend(env, k, delta, 1)
					continue
				}
				if backoff.DecayReceive(env, k, delta) {
					// Lost: sleep through the remaining simulated bits to
					// stay phase-aligned (the simulation preserves
					// Algorithm 1's early-sleep structure; the energy blow-
					// up comes from the backoff simulation itself).
					env.Sleep(uint64(b-j-1) * tb)
					won = false
					break
				}
			}
			if won {
				backoff.DecaySend(env, k, delta, 1)
				return int64(StatusInMIS)
			}
			if backoff.DecayReceive(env, k, delta) {
				return int64(StatusOutMIS)
			}
		}
		return int64(StatusUndecided)
	}
}
