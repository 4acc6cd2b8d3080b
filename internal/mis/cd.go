package mis

import (
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// CDProgram returns the per-node program of Algorithm 1, the energy-optimal
// MIS algorithm for the CD model.
//
// Each of the L = ⌈C log n⌉ Luby phases takes exactly B+1 rounds
// (B = ⌈β log n⌉): a bit-by-bit competition followed by one checking
// round. In bit j, a node with rank bit 1 transmits and a node with rank
// bit 0 listens; hearing anything (a message or a collision — or a beep in
// the beeping model) means a competing neighbor has a larger rank prefix,
// so the node sleeps out the rest of the competition. A node that survives
// all B bits won: it transmits a confirmation in the checking round,
// joins the MIS, and terminates. A loser listens in the checking round and
// terminates out of the MIS if it hears a winner; otherwise it proceeds to
// the next phase.
//
// Only the presence of transmissions matters (unary communication), which
// is why the identical program also runs in the beeping model.
//
// The program labels its awake actions with the phases "competition" (the
// bit loop) and "check" (the confirmation round) via Env.Phase, so an
// attached Observer can attribute every unit of energy.
func CDProgram(p Params) radio.Program {
	l := p.LubyPhases()
	b := p.RankBits()
	return func(env *radio.Env) int64 {
		for i := 0; i < l; i++ {
			env.Phase("competition")
			won := true
			for j := 0; j < b; j++ {
				if rng.Bool(env.Rand()) {
					env.TransmitBit()
					continue
				}
				if env.Listen().Heard() {
					// A higher-ranked neighbor is competing: lose this
					// phase and sleep through its remaining bits.
					env.Sleep(uint64(b - j - 1))
					won = false
					break
				}
			}
			env.Phase("check")
			if won {
				env.TransmitBit() // confirm inclusion to all neighbors
				return int64(StatusInMIS)
			}
			if env.Listen().Heard() {
				return int64(StatusOutMIS) // a neighbor won this phase
			}
		}
		return int64(StatusUndecided)
	}
}

// CDRoundBudget returns the exact worst-case round count of Algorithm 1
// with parameters p: L·(B+1). Useful for experiment sizing and tests.
func CDRoundBudget(p Params) uint64 {
	return uint64(p.LubyPhases()) * uint64(p.RankBits()+1)
}
