package mis

import (
	"radiomis/internal/backoff"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// compStatus is the intra-phase status vocabulary of Algorithms 2 and 3
// (the exported Status covers only final verdicts).
type compStatus int

const (
	compUndecided compStatus = iota + 1
	compLose
	compCommit
	compWin
	compInMIS
)

// phaseBudget holds the fixed segment lengths of one Luby phase of
// Algorithm 2. All nodes derive identical budgets from the shared
// parameters, which is what keeps them round-synchronized without any
// global coordination.
type phaseBudget struct {
	tb  uint64 // T_B(C′ log n): one deep-check backoff
	tc  uint64 // T_C = B · T_B: the competition
	tg  uint64 // T_G: the LowDegreeMIS window
	tb1 uint64 // T_B(1): the shallow check
	tl  uint64 // T_L = T_C + 2·T_B + T_G + T_B(1): one full Luby phase
}

func newPhaseBudget(p Params) phaseBudget {
	tb := backoff.Rounds(p.BackoffReps(), p.Delta)
	tc := uint64(p.RankBits()) * tb
	tg := LowDegreeRounds(p, p.CommitDegree())
	tb1 := backoff.Rounds(p.shallowReps(), p.Delta)
	return phaseBudget{
		tb:  tb,
		tc:  tc,
		tg:  tg,
		tb1: tb1,
		tl:  tc + 2*tb + tg + tb1,
	}
}

// NoCDRoundBudget returns the exact round count of Algorithm 2: L Luby
// phases of T_L rounds each (every node consumes exactly this many rounds;
// early deciders sleep out the remainder).
func NoCDRoundBudget(p Params) uint64 {
	return uint64(p.LubyPhases()) * newPhaseBudget(p).tl
}

// NoCDProgram returns the per-node program of Algorithm 2, the
// energy-efficient MIS algorithm for the no-CD model
// (O(log² n · log log n) energy, O(log³ n · log Δ) rounds).
//
// Each Luby phase has five fixed-length segments:
//
//	competition | deep check 1 | deep check 2 | LowDegreeMIS | shallow check
//
// Undecided nodes run the Competition (Algorithm 3) and come out as win,
// lose, or commit. Winners deep-check for already-decided MIS neighbors and
// join the MIS if they hear none. Committed nodes deep-check and then
// resolve among themselves with LowDegreeMIS on their O(log n)-degree
// induced subgraph. Every non-MIS node performs a cheap shallow check
// (a single backoff iteration) at the end of the phase, giving it a
// constant probability per phase of discovering an MIS neighbor. MIS
// members never terminate: they keep announcing in every later phase.
//
// The program labels its awake actions via Env.Phase — "competition",
// "deep-check", "announce", "low-degree", and "shallow-check" — so an
// attached Observer (obs.PhaseBreakdown) can attribute every unit of
// energy to the segment that spent it.
func NoCDProgram(p Params) radio.Program {
	return func(env *radio.Env) int64 {
		return runNoCD(env, p, compUndecided)
	}
}

// runNoCD executes Algorithm 2 starting at the node's current round with
// the given initial status. It consumes exactly NoCDRoundBudget(p) rounds
// on every code path — early deciders sleep out the remainder — which lets
// the unknown-Δ wrapper chain attempts back to back. It returns the node's
// verdict.
func runNoCD(env *radio.Env, p Params, initial compStatus) int64 {
	// Restore the caller's phase label on exit so the labels set per segment
	// below don't leak into whatever the caller (e.g. the unknown-Δ
	// wrapper's verification windows) does next.
	prevPhase := env.PhaseLabel()
	defer env.Phase(prevPhase)
	var (
		l      = p.LubyPhases()
		b      = p.RankBits()
		k      = p.BackoffReps()
		delta  = p.Delta
		dHat   = p.CommitDegree()
		budget = newPhaseBudget(p)
		start  = env.Round()
		end    = start + uint64(l)*budget.tl
	)
	finish := func(v Status) int64 {
		env.SleepUntil(end)
		return int64(v)
	}
	status := initial
	for i := 0; i < l; i++ {
		if p.EnergyCap > 0 && env.Energy() > p.EnergyCap {
			// The paper's deterministic energy threshold: sleep for the
			// remainder and decide arbitrarily (we choose out-MIS, which
			// can cost maximality but never independence).
			return finish(StatusOutMIS)
		}
		base := start + uint64(i)*budget.tl

		// Segment 1: competition (T_C rounds).
		if status == compInMIS {
			env.SleepUntil(base + budget.tc)
		} else {
			env.Phase("competition")
			status = competition(env, p, b, k, delta, dHat)
		}

		// Segment 2: deep check 1 (T_B rounds). MIS members announce;
		// winners check for MIS neighbors they could conflict with.
		switch status {
		case compInMIS:
			env.Phase("announce")
			backoff.Send(env, k, delta, 1)
		case compWin:
			env.Phase("deep-check")
			if receive(env, p, k, delta, 0) {
				return finish(StatusOutMIS) // dominated: stop early
			}
			status = compInMIS
		default:
			env.SleepUntil(base + budget.tc + budget.tb)
		}

		// Segment 3: deep check 2 + LowDegreeMIS window (T_B + T_G
		// rounds). Fresh and old MIS members announce; committed nodes
		// check and then resolve among themselves.
		endSeg3 := base + budget.tc + 2*budget.tb + budget.tg
		switch status {
		case compInMIS:
			env.Phase("announce")
			backoff.Send(env, k, delta, 1)
			env.SleepUntil(endSeg3)
		case compCommit:
			env.Phase("deep-check")
			if receive(env, p, k, delta, 0) {
				return finish(StatusOutMIS) // dominated: stop early
			}
			env.Phase("low-degree")
			verdict := lowDegreeMIS(env, p, dHat)
			switch verdict {
			case StatusInMIS:
				status = compInMIS
			case StatusOutMIS:
				return finish(StatusOutMIS)
			default:
				status = compUndecided // retry in the next Luby phase
			}
			env.SleepUntil(endSeg3) // defensive; lowDegreeMIS is exact
		default:
			env.SleepUntil(endSeg3)
		}

		// Segment 4: shallow check (T_B(1) rounds) — one backoff
		// iteration giving neighbors of MIS nodes a constant probability
		// to drop out cheaply. Ablations can remove it or inflate it to a
		// full deep check (its round budget follows p.shallowReps()).
		ks := p.shallowReps()
		switch {
		case p.Ablate.NoShallowCheck:
			env.SleepUntil(base + budget.tl)
			if status != compInMIS {
				status = compUndecided
			}
		case status == compInMIS:
			env.Phase("announce")
			backoff.Send(env, ks, delta, 1)
		default:
			env.Phase("shallow-check")
			if receive(env, p, ks, delta, 0) {
				return finish(StatusOutMIS)
			}
			status = compUndecided
		}
	}
	if status == compInMIS {
		return int64(StatusInMIS)
	}
	return int64(StatusUndecided)
}

// competition is Algorithm 3: the bit-by-bit rank competition implemented
// over energy-efficient backoffs. It consumes exactly B·T_B rounds and
// returns the node's end-of-competition status (win, lose, or commit).
//
// A node with rank bit 1 sends a full backoff; a node with bit 0 listens.
// The first silent 0-bit commits the node: it concludes (justified by
// Corollary 13) that it has at most d̂ = min(Δ, κ log n) undecided
// neighbors, shrinks its receiver budget accordingly, and guarantees itself
// a decision by the end of the phase. A node that hears anything before
// committing loses and sleeps out the competition; a node that hears
// nothing at all wins.
func competition(env *radio.Env, p Params, b, k, delta, dHat int) compStatus {
	// Label the span for Observer attribution unless the caller already did
	// (Algorithm 2 sets "competition" itself; RunCompetitionOnce does not).
	if env.PhaseLabel() == "" {
		env.Phase("competition")
		defer env.Phase("")
	}
	var (
		st    = compUndecided
		dEst  = delta
		heard = false
		tb    = backoff.Rounds(k, delta)
		bits  = rng.Bits(env.Rand(), b)
	)
	for j := 0; j < b; j++ {
		switch {
		case st == compLose:
			env.Sleep(tb)
		case bits[j]:
			backoff.Send(env, k, delta, 1)
		default:
			if receive(env, p, k, delta, dEst) {
				heard = true
			}
			switch {
			case p.Ablate.NoCommit:
				if heard {
					st = compLose
				}
			case heard && st != compCommit:
				st = compLose
			case !heard && st != compCommit:
				if dHat < delta {
					dEst = dHat
				}
				st = compCommit
			}
		}
	}
	if !heard {
		return compWin // nodes that heard nothing win, committed included
	}
	return st
}

// receive dispatches to the configured receiver backoff (the early-sleep
// optimization is an ablation target).
func receive(env *radio.Env, p Params, k, delta, dEst int) bool {
	if p.Ablate.NoReceiverEarlySleep {
		return backoff.ReceiveNoEarlySleep(env, k, delta, dEst)
	}
	return backoff.Receive(env, k, delta, dEst)
}
