package radio

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"

	"radiomis/internal/rng"
)

// Program is a node algorithm. It runs in its own goroutine, interacts with
// the network exclusively through the Env, and its return value is the
// node's output (for MIS algorithms, the final status). Returning halts the
// node: it sleeps forever and spends no further energy.
type Program func(env *Env) int64

// errKilled is the sentinel panic value used to unwind node goroutines when
// the engine aborts a run (e.g. on exceeding MaxRounds).
type killedError struct{}

func (killedError) Error() string { return "radio: node killed by engine shutdown" }

// crashSignal is the sentinel panic value delivered to a node goroutine
// when the fault injector crashes it. The coordinator sends it on the
// node's crash channel; flush and Listen receive it at the node's next
// blocking point and panic with it, unwinding the current program life.
// The node's supervisor loop (see Run) recovers it and either lets the
// node die (crash-stop) or re-runs the program (crash-restart).
type crashSignal struct {
	// restart reports whether the node reboots; false means crash-stop.
	restart bool
	// resumeRound is the round the rebooted program starts at.
	resumeRound uint64
}

// Env is a node's handle on the simulated radio network. All methods must
// be called from the node's own program goroutine. An Env is not safe for
// use from other goroutines.
type Env struct {
	id int
	n  int
	// src is the node's random stream, and rand wraps it for the program:
	// Rand's draws and Source's are one stream.
	src  rng.Source
	rand *rand.Rand
	// round is the round at which the node's next action takes place. The
	// scheduler sets it at the end of a listen run, before its reply,
	// which the node receives before it reads the field again.
	round uint64

	// The batched hand-off. The node appends its intents to fill, a batch
	// cut from ring (three equal buffers of the run's batch capacity), and
	// hands fill over on handoff only when it must wait for a reception (a
	// listen run, however many rounds it lasts), when it halts, or when
	// fill is full (or lacks the two slots a transmit run takes); then it
	// rotates to the next buffer.
	// Three buffers suffice because handoff holds one batch: when the node
	// starts batch k its send of batch k-1 has completed, so the scheduler
	// had taken batch k-2, which it does only after finishing batch k-3,
	// whose buffer batch k reuses.
	ring    []intent
	fill    []intent
	handoff chan []intent
	replyCh chan Reception
	kill    chan struct{}
	// crashCh delivers crash faults from the coordinator; nil unless the
	// run's fault profile enables crashes (a nil channel never selects, so
	// clean runs pay nothing for the extra case).
	crashCh chan crashSignal
	// fast selects the select-free channel discipline: a batch hand-off is
	// a plain send guarded by one atomic load of down, and a listen's wait
	// a plain receive — roughly a third of the cost of the historical three-way
	// selects. It is enabled whenever nothing can preempt a blocked node
	// mid-run: the round scheduler with no crash faults configured.
	// Crash-fault runs keep the select discipline because a blocked node
	// must stay receptive to crashCh, and the reference engine keeps it
	// because that synchronization cost is part of what it preserves. See
	// run's teardown for the fast shutdown protocol.
	fast bool
	// ref marks a node of the reference engine, which serves one
	// single-round intent per hand-off: ListenFor expands there into
	// single-round listens, so the reference engine defines listen runs.
	ref bool
	// k is the index of fill's buffer in ring. It sits beside fast and ref
	// so that an Env stays within 160 bytes.
	k uint8
	// down is the run-wide teardown flag backing the fast discipline
	// (shared by all of the run's Envs).
	down *atomic.Bool

	energy uint64
	phase  string // current phase label, stamped onto awake intents
}

// ID returns the node's index in [0, N). The model is anonymous — the
// paper's algorithms never read IDs — but experiments and traces need them.
func (e *Env) ID() int { return e.id }

// N returns the number of nodes in the simulated network. Algorithms that
// should only know an upper bound receive that bound as an explicit
// parameter instead of calling N.
func (e *Env) N() int { return e.n }

// Round returns the round at which the node's next action will occur.
// Node-local bookkeeping keeps this exact without any global clock:
// Transmit and Listen each consume one round, ListenFor the rounds it
// listened, and Sleep(k) and TransmitRun(mask, k, payload) consume k.
func (e *Env) Round() uint64 { return e.round }

// Rand returns the node's private random stream. Streams of distinct nodes
// are independent and the whole run is reproducible from the engine seed.
func (e *Env) Rand() *rand.Rand { return e.rand }

// Source returns the source behind Rand: drawing from either advances the
// one stream. It lets a primitive draw through the concrete SplitMix64
// source, as backoff.Send does with rng.Source.BackoffMask.
func (e *Env) Source() *rng.Source { return &e.src }

// Energy returns the number of awake rounds the node has spent so far.
func (e *Env) Energy() uint64 { return e.energy }

// Phase labels the node's subsequent awake actions with an algorithm-phase
// name, for energy attribution by an Observer (PhaseBreakdown, the trace
// exporters). It returns the previous label so nested primitives can
// restore their caller's attribution. Setting a phase consumes no rounds
// and no energy and never affects the simulation outcome.
func (e *Env) Phase(name string) (prev string) {
	prev = e.phase
	e.phase = name
	return prev
}

// PhaseLabel returns the node's current phase label ("" when unset).
// Shared primitives use it to annotate their span only when the caller has
// not already claimed it (see internal/backoff).
func (e *Env) PhaseLabel() string { return e.phase }

// Transmit sends payload to all neighbors this round. The node is awake
// (one unit of energy) and cannot listen in the same round; whether any
// neighbor receives the message depends on the collisions at that neighbor.
func (e *Env) Transmit(payload uint64) {
	e.submit(intent{kind: intentTransmit, arg: payload, phase: e.phase})
	e.round++
	e.energy++
}

// TransmitBit transmits the 1-bit used by the unary algorithms ("beep").
func (e *Env) TransmitBit() { e.Transmit(1) }

// maxRunSpan is the longest transmit run: a run's mask and its span share
// one 64-bit intent operand.
const maxRunSpan = 63

// TransmitRun transmits payload in each round Round()+i of the next span
// rounds whose mask bit i is set and sleeps in the others; mask bits at or
// above span are ignored. It stands for the loop of Transmit and Sleep
// calls it replaces: every round is charged, observed, fault-injected and
// checked under UnaryOnly exactly as that loop's would be. Round advances
// by span and Energy by the rounds transmitted. span is at most 63; a
// longer span panics.
//
// On the scheduler a transmit run is one intent however many rounds it
// spans. With no observer and no fault injector the scheduler serves it
// whole at its first round and visits the node next in the round after
// it, so a sender's backoff costs one scheduler visit per run; otherwise
// it serves the run again in each round it transmits, where the observer
// sees and the injector strikes each transmit, and skips the rounds it
// sleeps. The reference engine expands it into Transmit and Sleep calls,
// which defines it.
func (e *Env) TransmitRun(mask, span, payload uint64) {
	if span > maxRunSpan {
		panic(fmt.Sprintf("radio: TransmitRun span %d exceeds %d rounds", span, maxRunSpan))
	}
	mask &= 1<<span - 1
	if mask == 0 {
		e.Sleep(span)
		return
	}
	if e.ref {
		for i := uint64(0); i < span; {
			if mask>>i&1 != 0 {
				e.Transmit(payload)
				i++
				continue
			}
			gap := min(span, i+uint64(bits.TrailingZeros64(mask>>i))) - i
			e.Sleep(gap)
			i += gap
		}
		return
	}
	// The header and its payload slot share a batch.
	if len(e.fill)+2 > cap(e.fill) {
		e.flush()
	}
	e.fill = append(e.fill,
		intent{kind: intentTransmitRun, arg: mask | 1<<span, phase: e.phase},
		intent{kind: intentRunPayload, arg: payload})
	if len(e.fill) == cap(e.fill) {
		e.flush()
	}
	e.round += span
	e.energy += uint64(bits.OnesCount64(mask))
}

// Listen spends this round listening and returns what was perceived under
// the network's collision model. The node is awake (one unit of energy).
// It is ListenFor(1).
func (e *Env) Listen() Reception {
	r, _ := e.ListenFor(1)
	return r
}

// ListenFor listens for up to m consecutive rounds and returns at the first
// round whose reception Heard() — under no-CD, the first message — or after
// m rounds, with that round's reception and the number of rounds listened.
// The node is awake (one unit of energy) in every round it listens, and
// every round is perceived and observed exactly as a Listen call in its
// place would be. ListenFor(0) listens to nothing: it returns Silence and 0.
//
// On the scheduler a listen run is one hand-off however long it lasts: the
// scheduler serves the same intent round after round and replies when the
// run ends, so a receiver waiting out a backoff costs a goroutine switch
// per message heard, not per round.
func (e *Env) ListenFor(m uint64) (Reception, uint64) {
	if m == 0 {
		return Reception{Kind: Silence}, 0
	}
	if !e.ref {
		start := e.round
		r := e.listen(m)
		n := e.round - start
		e.energy += n
		return r, n
	}
	for i := uint64(1); ; i++ {
		r := e.listen(1)
		e.round++
		e.energy++
		if r.Heard() || i == m {
			return r, i
		}
	}
}

// listen hands over a listen run of m rounds and waits for its reply.
func (e *Env) listen(m uint64) Reception {
	e.fill = append(e.fill, intent{kind: intentListen, arg: m, phase: e.phase})
	e.flush()
	if e.fast {
		r, ok := <-e.replyCh
		if !ok {
			panic(killedError{}) // replyCh closed: engine shutdown
		}
		return r
	}
	select {
	case r := <-e.replyCh:
		return r
	case sig := <-e.crashCh:
		panic(sig)
	case <-e.kill:
		panic(killedError{})
	}
}

// Sleep puts the node to sleep for k rounds (no energy). k ≤ 0 is a no-op.
func (e *Env) Sleep(k uint64) {
	if k == 0 {
		return
	}
	e.submit(intent{kind: intentSleep, arg: k})
	e.round += k
}

// SleepUntil sleeps until the given absolute round. If the target is not in
// the future it is a no-op — this makes the "sleep until round …"
// resynchronization lines of Algorithm 2 safe to call unconditionally.
func (e *Env) SleepUntil(round uint64) {
	if round > e.round {
		e.Sleep(round - e.round)
	}
}

// submit appends an intent that does not wait for the scheduler, handing
// the batch over only once it is full.
func (e *Env) submit(it intent) {
	e.fill = append(e.fill, it)
	if len(e.fill) == cap(e.fill) {
		e.flush()
	}
}

// flush hands the filled batch to the scheduler and starts the next one in
// the following ring buffer.
func (e *Env) flush() {
	b := e.fill
	e.k++
	if e.k == 3 {
		e.k = 0
	}
	c, k := cap(b), int(e.k)
	e.fill = e.ring[k*c : k*c : (k+1)*c]
	if e.fast {
		// Plain send, guarded by the teardown flag: once the engine
		// raises down it drains handoff exactly once, so a send already
		// blocked on a full channel completes (and the node unwinds here
		// on its next hand-off), while no new send can block.
		if e.down.Load() {
			panic(killedError{})
		}
		e.handoff <- b
		return
	}
	select {
	case e.handoff <- b:
	case sig := <-e.crashCh:
		panic(sig)
	case <-e.kill:
		panic(killedError{})
	}
}

// restart empties the node's side of the hand-off for a new program life:
// it discards the batch the dead life left on handoff, if any, and its
// unflushed intents. It runs on the node's own goroutine after the old
// life unwound, so nothing can refill handoff meanwhile.
func (e *Env) restart() {
	select {
	case <-e.handoff:
	default:
	}
	e.k = 0
	e.fill = e.ring[:0:cap(e.fill)]
}

// intentKind enumerates the actions a node can submit for a round.
type intentKind int

const (
	intentTransmit intentKind = iota + 1
	intentListen
	intentSleep
	intentHalt
	// intentTransmitRun heads a transmit run (Env.TransmitRun). The next
	// slot of its batch, an intentRunPayload, carries the run's payload.
	intentTransmitRun
	intentRunPayload
)

type intent struct {
	kind intentKind
	// arg is the kind's operand: a transmit's payload, a listen's run
	// length (ListenFor), a sleep's length, a halt's output, a transmit
	// run's mask with a marker bit at its span (mask | 1<<span), or a run
	// payload slot's payload. One shared field keeps an intent at 32
	// bytes, which sizes every node's batch buffers.
	arg   uint64
	phase string // Env.Phase label at submission (awake intents only)
}
