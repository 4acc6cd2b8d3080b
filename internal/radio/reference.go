package radio

import (
	"context"
	"fmt"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// This file preserves the pre-rework engine — the discrete-event
// coordinator that serviced every node through a single goroutine and a
// per-node single-slot channel rendezvous — as the reference
// implementation for the round scheduler (sched.go).
//
// It exists for two reasons:
//
//   - Golden parity: the scheduler's contract is a bit-identical Result at
//     any fixed (graph, config, seed). The differential tests in
//     sched_parity_test.go run both engines on the same inputs and require
//     equal results, equal observer event streams, and equal errors.
//   - Honest benchmarking: BenchmarkRun compares the scheduler's trial
//     throughput against this coordinator (including its historical
//     single-slot rendezvous: one intent per hand-off), so reported
//     speedups measure the rework, not a strawman.
//
// It is reachable only through runReference (exported to tests via
// export_test.go) and must not change behavior; bug fixes that alter
// simulation semantics belong in both engines or neither.

// runReference simulates program exactly like Run but on the pre-rework
// coordinator. Results are bit-identical to Run's at equal inputs.
func runReference(g *graph.Graph, cfg Config, program Program) (*Result, error) {
	return run(g, cfg, program, true)
}

// coordinateReference is the pre-rework discrete-event scheduler: it
// advances directly to the next round with an awake node, gathers that
// round's intents, applies the collision rule, and replies to listeners.
// When an observer is attached it additionally classifies every listener's
// reception — success, collision, or silence — from the same transmission
// marks it already keeps, so observation costs O(1) extra per awake action
// and nothing per round when no observer is attached.
//
// When a fault injector is attached (inj non-nil) the scheduler interposes
// it at three points: crash hazards are drawn as each due node's intent is
// consumed (a crashed node's action is suppressed before it can affect the
// channel), the jammer observes the surviving transmitter count and
// decides whether to burn budget on the round, and the reception loop
// filters every transmitter→listener delivery through the loss and noise
// models before the collision rule is applied.
func coordinateReference(g *graph.Graph, cfg Config, inj *faults.Injector, maxRounds uint64, envs []*Env, wakes []uint64, res *Result) error {
	model, obs := cfg.Model, cfg.Observer
	var done <-chan struct{}
	if cfg.Ctx != nil {
		done = cfg.Ctx.Done()
	}
	n := len(envs)
	h := make(eventHeap, 0, n)
	for i := 0; i < n; i++ {
		h.push(event{round: wakes[i], id: i})
	}

	var (
		// Epoch-stamped marks avoid clearing per round.
		txEpoch   = make([]uint64, n)
		txPayload = make([]uint64, n)
		epoch     uint64
		due       []int
		nTx       int
		listeners []int
		stats     RoundStats // buffers reused across rounds (observer only)
		active    = n
		crashes   int
	)

	for active > 0 {
		// Cooperative abort: one non-blocking check per round boundary
		// keeps a cancelled (or timed-out) run from burning CPU through
		// the rest of its simulation.
		select {
		case <-done:
			return fmt.Errorf("%w: %w", ErrAborted, context.Cause(cfg.Ctx))
		default:
		}
		r := h.peekRound()
		if r >= maxRounds {
			return fmt.Errorf("%w (cap %d)", ErrMaxRounds, maxRounds)
		}
		epoch++
		nTx = 0
		crashes = 0
		due = due[:0]
		listeners = listeners[:0]
		if obs != nil {
			stats = RoundStats{
				Round:        r,
				Transmitters: stats.Transmitters[:0],
				Listeners:    stats.Listeners[:0],
				Crashed:      stats.Crashed[:0],
			}
		}

		// Pop every node scheduled for round r; pops arrive in id order
		// because the heap breaks round ties by id.
		for len(h) > 0 && h.peekRound() == r {
			due = append(due, h.pop().id)
		}

		for _, id := range due {
			env := envs[id]
			// Reference batches hold one intent (see run), so each
			// hand-off is the historical single-slot rendezvous.
			it := (<-env.handoff)[0]
			// Crash faults strike awake actions: the node dies before the
			// action takes effect (no transmission, no listen, no energy
			// charged). The signal rendezvous guarantees the old life is
			// unwinding before the round proceeds.
			if inj != nil && (it.kind == intentTransmit || it.kind == intentListen) && inj.CrashesNow(id) {
				delay, restart := inj.Restart(id)
				env.crashCh <- crashSignal{restart: restart, resumeRound: r + delay}
				if restart {
					// Rendezvous with the supervisor: wait until the old
					// life is fully unwound and drained. Without this the
					// coordinator could reach round r+delay and consume a
					// stale intent the dying life buffered on its way down.
					<-env.crashCh
					h.push(event{round: r + delay, id: id})
				} else {
					res.Crashed[id] = true
					active--
				}
				crashes++
				if obs != nil {
					stats.Crashed = append(stats.Crashed, id)
				}
				continue
			}
			switch it.kind {
			case intentTransmit:
				if cfg.UnaryOnly && it.arg != 1 {
					return fmt.Errorf("%w: node %d sent %#x", ErrNotUnary, id, it.arg)
				}
				txEpoch[id] = epoch
				txPayload[id] = it.arg
				nTx++
				res.Energy[id]++
				if obs != nil {
					stats.Transmitters = append(stats.Transmitters, NodeTx{ID: id, Phase: it.phase, Payload: it.arg})
				}
				h.push(event{round: r + 1, id: id})
			case intentListen:
				listeners = append(listeners, id)
				res.Energy[id]++
				if obs != nil {
					stats.Listeners = append(stats.Listeners, NodeRx{ID: id, Phase: it.phase})
				}
				h.push(event{round: r + 1, id: id})
			case intentSleep:
				h.push(event{round: r + it.arg, id: id})
			case intentHalt:
				res.Outputs[id] = int64(it.arg)
				res.HaltRound[id] = r
				active--
				if obs != nil {
					obs.ObserveHalt(id, int64(it.arg), res.Energy[id], r)
				}
			default:
				return fmt.Errorf("radio: node %d submitted unknown intent %d", id, it.kind)
			}
		}

		// The jamming adversary observes the round's contention (the
		// surviving transmitter count) and greedily decides whether to
		// spend budget; a jammed round adds collision-level interference
		// at every listener.
		jammed := false
		if inj != nil && nTx > 0 {
			jammed = inj.JamRound(nTx)
			if obs != nil {
				stats.Jammed = jammed
			}
		}

		// Deliver receptions, classifying outcomes for the observer. With
		// faults attached, each transmitter→listener delivery first passes
		// the loss filter, and noise/jamming add phantom transmitters that
		// the collision rule perceives but no node sent.
		for li, id := range listeners {
			physical := 0  // transmitting neighbors (ground truth)
			delivered := 0 // deliveries surviving the loss model
			var payload uint64
			for _, w := range g.Neighbors(id) {
				if txEpoch[w] != epoch {
					continue
				}
				physical++
				if inj != nil && !inj.Delivered() {
					continue
				}
				delivered++
				payload = txPayload[w]
			}
			effective := delivered
			if jammed {
				effective += 2
			}
			if inj != nil && inj.NoiseAt() {
				effective += 2
				if obs != nil {
					stats.Noised++
				}
			}
			reception := perceive(model, effective, payload)
			if obs != nil {
				rx := &stats.Listeners[li]
				rx.TxNeighbors = physical
				rx.Delivered = delivered
				rx.Outcome = reception.Kind
				stats.Lost += physical - delivered
				switch {
				case effective == 0:
					stats.Silences++
				case effective == 1:
					stats.Successes++
				default:
					stats.Collisions++
				}
			}
			envs[id].replyCh <- reception
		}

		if nTx > 0 || len(listeners) > 0 || crashes > 0 {
			res.Rounds = r + 1
			if obs != nil {
				obs.ObserveRound(&stats)
			}
		}
	}
	return nil
}
