// Package backoff implements the communication primitives of the no-CD
// model: the paper's energy-efficient k-repeated backoff procedures
// (Algorithm 4, Appendix C) and the traditional Decay backoff they improve
// upon.
//
// A backoff runs for exactly Rounds(k, delta) = k·⌈log₂ Δ⌉ rounds, split
// into k iterations of ⌈log₂ Δ⌉ slots. Senders and receivers that start a
// backoff in the same round stay in lockstep for its entire duration, which
// is what lets Algorithm 2 keep all nodes synchronized.
//
// Guarantees (Lemmas 8 and 9 of the paper):
//
//   - Send is awake exactly k rounds (one transmission per iteration).
//   - Receive is awake at most k·⌈log₂ Δest⌉ rounds, and goes to sleep for
//     the remainder as soon as it hears a message.
//   - If a receiver has between 1 and Δest sender neighbors, it hears a
//     message with probability at least 1 − (7/8)^k.
//
// Send and Receive hand the engine runs of slots rather than single slots.
// Send transmits through up to 63 rounds of iterations with one
// radio.Env.TransmitRun, so on the scheduler a sender costs one visit per
// run on a clean, unobserved run and one per transmission otherwise, and
// hands off about once per 16 runs. It draws a run's slots a coin word at a
// time from the node's SplitMix64 source (rng.Source.BackoffMask), the
// same draws as one rng.GeometricHalf call per iteration. Receive listens
// through its slots with radio.Env.ListenFor, one listen run per window of
// consecutive listening slots, so a receiver hands off once per message
// heard or per window, not once per slot. Both yield exactly the
// receptions, energy and rounds of slot-by-slot transmitting and
// listening.
package backoff

import (
	"math/bits"

	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// claimPhase labels the node's awake actions with name for the duration of
// a primitive, but only when the caller has not already set a phase of its
// own — the innermost unclaimed span wins, so e.g. Algorithm 2's
// "competition" label is not overwritten by the backoffs it is built from.
// It returns the label to restore via restorePhase on exit.
func claimPhase(env *radio.Env, name string) (prev string) {
	prev = env.PhaseLabel()
	if prev == "" {
		env.Phase(name)
	}
	return prev
}

func restorePhase(env *radio.Env, prev string) {
	if prev == "" {
		env.Phase("")
	}
}

// Slots returns the number of slots per backoff iteration: ⌈log₂ Δ⌉,
// clamped to at least 2 whenever collisions are possible (Δ ≥ 2). The
// clamp matters: Lemma 9's analysis needs the first slot's transmission
// probability to be 1/2, i.e. the geometric slot choice must be able to
// overflow past slot 1 — with a single slot two senders would collide in
// every iteration and the receiver would never hear them.
func Slots(delta int) int {
	if delta <= 1 {
		return 1
	}
	s := bits.Len(uint(delta - 1)) // ⌈log₂ delta⌉
	if s < 2 {
		return 2
	}
	return s
}

// Rounds returns the total duration T_B(k) = k·Slots(Δ) of a k-repeated
// backoff with degree bound delta. Both Send and Receive consume exactly
// this many rounds.
func Rounds(k, delta int) uint64 {
	return uint64(k) * uint64(Slots(delta))
}

// runSpan is the longest radio.Env.TransmitRun, in rounds.
const runSpan = 63

// Send runs Snd-EBackoff(k, Δ): in each of the k iterations the sender
// picks slot x with the capped geometric distribution P(x = j) = 2^{-j}
// (the final slot absorbing the tail), transmits payload in that slot, and
// sleeps through all other slots. Total awake rounds: exactly k.
//
// The slots are fixed by the draws before the sender first transmits, so
// Send draws the slots of ⌊63/Slots(Δ)⌋ iterations at a time and submits
// them as one radio.Env.TransmitRun. It draws them with
// rng.Source.BackoffMask from the node's source (radio.Env.Source), a coin
// word at a time: exactly the draws of one rng.GeometricHalf(env.Rand())
// call per iteration, in the same order, leaving the stream where those
// calls would.
func Send(env *radio.Env, k, delta int, payload uint64) {
	defer restorePhase(env, claimPhase(env, "snd-ebackoff"))
	slots := Slots(delta)
	per := runSpan / slots
	src := env.Source()
	for i := 0; i < k; i += per {
		iters := min(per, k-i)
		env.TransmitRun(src.BackoffMask(slots, iters), uint64(iters*slots), payload)
	}
}

// Receive runs Rec-EBackoff(k, Δ, Δest): it listens in the first
// ⌈log₂ Δest⌉ slots of each iteration until it first hears a message, then
// sleeps for the remainder of the backoff. It reports whether a message was
// heard. deltaEst ≤ 0 defaults to delta (the paper's optional argument).
func Receive(env *radio.Env, k, delta, deltaEst int) bool {
	_, heard := ReceivePayload(env, k, delta, deltaEst)
	return heard
}

// ReceivePayload is Receive but also returns the payload of the first
// message heard (0 when nothing was heard).
//
// The receiver's listens form runs of consecutive rounds — the whole
// backoff when it listens in every slot, one run per iteration otherwise —
// and each run is one Env.ListenFor, so the engine hands off once per run
// or message heard, not once per slot. A heard non-message
// (a CD collision, a beep) ends a ListenFor but not the listening, which
// goes on exactly as slot-by-slot listening would.
func ReceivePayload(env *radio.Env, k, delta, deltaEst int) (uint64, bool) {
	defer restorePhase(env, claimPhase(env, "rec-ebackoff"))
	if deltaEst <= 0 || deltaEst > delta {
		deltaEst = delta
	}
	slots := Slots(delta)
	listenSlots := Slots(deltaEst)
	if listenSlots > slots {
		listenSlots = slots
	}
	iters, span, run := k, uint64(slots), uint64(listenSlots)
	if listenSlots == slots && k > 0 {
		iters, span, run = 1, uint64(k)*span, uint64(k)*run
	}
	for i := 0; i < iters; i++ {
		for left := run; left > 0; {
			r, m := env.ListenFor(left)
			left -= m
			if r.Kind == radio.MessageKind {
				// Sleep out the rest of the backoff.
				env.Sleep(uint64(iters-i)*span - (run - left))
				return r.Payload, true
			}
		}
		env.Sleep(span - run)
	}
	return 0, false
}

// ReceiveNoEarlySleep is Receive with the paper's receiver-side energy
// optimization disabled: the node listens in every one of its
// ⌈log₂ Δest⌉ slots of every iteration even after hearing a message. It
// exists for the ablation experiments (E10); the energy difference against
// Receive is the saving §4.1 attributes to early sleeping.
func ReceiveNoEarlySleep(env *radio.Env, k, delta, deltaEst int) bool {
	defer restorePhase(env, claimPhase(env, "rec-ebackoff"))
	if deltaEst <= 0 || deltaEst > delta {
		deltaEst = delta
	}
	slots := Slots(delta)
	listenSlots := Slots(deltaEst)
	if listenSlots > slots {
		listenSlots = slots
	}
	heard := false
	for i := 0; i < k; i++ {
		for j := 0; j < listenSlots; j++ {
			if env.Listen().Kind == radio.MessageKind {
				heard = true
			}
		}
		env.Sleep(uint64(slots - listenSlots))
	}
	return heard
}

// Idle occupies the same Rounds(k, delta) window as a backoff while
// sleeping throughout. Nodes that sit out a backoff phase call Idle to stay
// aligned with participants.
func Idle(env *radio.Env, k, delta int) {
	env.Sleep(Rounds(k, delta))
}

// DecaySend is the traditional (non-energy-efficient) Decay sender: in each
// iteration it transmits in slots 1..X for X geometric-capped, and stays
// awake listening in all other slots. Energy: all k·Slots(Δ) rounds. Used
// as the baseline that Snd-EBackoff improves on.
func DecaySend(env *radio.Env, k, delta int, payload uint64) {
	defer restorePhase(env, claimPhase(env, "decay-send"))
	slots := Slots(delta)
	for i := 0; i < k; i++ {
		x := rng.GeometricHalf(env.Rand())
		if x > slots {
			x = slots
		}
		for j := 1; j <= slots; j++ {
			if j <= x {
				env.Transmit(payload)
			} else {
				env.Listen() // awake but idle: traditional backoff never sleeps
			}
		}
	}
}

// DecayReceive is the traditional Decay receiver: it listens in every slot
// of every iteration (energy k·Slots(Δ)) and reports whether any message
// was heard.
func DecayReceive(env *radio.Env, k, delta int) bool {
	defer restorePhase(env, claimPhase(env, "decay-receive"))
	slots := Slots(delta)
	heard := false
	for i := 0; i < k; i++ {
		for j := 0; j < slots; j++ {
			if env.Listen().Kind == radio.MessageKind {
				heard = true
			}
		}
	}
	return heard
}
