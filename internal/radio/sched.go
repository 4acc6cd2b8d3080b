package radio

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// This file implements the engine's round scheduler, which advances all
// awake nodes one round at a time on the goroutine that called Run. It
// replaces the pre-rework coordinator (reference.go), which serviced every
// node through an event heap and a single-slot rendezvous, with three ideas:
//
//   - CSR + bitset aggregation. Adjacency is snapshot once per run into a
//     compressed-sparse-row array (graph.CSR) and the round's transmitters
//     into a bitset, so the reception sweep is a dense scan over two
//     cache-resident arrays instead of pointer-chasing per-node slices.
//   - Pooled round buffers. The due list, the round calendar, transmitter
//     and listener sets, observer scratch, and the bitset are all reused
//     across rounds (and, via Pool, across runs), so the steady-state
//     scheduler allocates nothing per round — the nil-observer zero-alloc
//     guarantee of the pre-rework engine is preserved.
//   - Batched hand-off. A node goroutine hands its intents over in batches
//     (Env.flush), so a node running ahead costs a goroutine switch per
//     batch rather than per intent; the scheduler reads them through
//     per-node cursors (take) and yields once before waiting for a batch
//     that has not arrived (refill). A listen run (Env.ListenFor) is one
//     intent the scheduler serves again every round until the node hears
//     something or the run is spent (reply), so a receiver that listens
//     through a backoff costs one switch per message heard, not per round.
//     A transmit run (Env.TransmitRun) is one intent the scheduler serves
//     again at each of its transmitting rounds (runRound), so a sender's
//     backoff costs one scheduler visit per transmission, not per slot.
//
// Event scheduling exploits that almost every event lands within a few
// rounds: an awake action at round r schedules the node at r+1, and the
// gaps of sleeps and transmit runs are mostly a few rounds long. The
// scheduler keeps a round calendar of 64 buckets, one per round of the
// next 64, each a bitset over node ids, plus one occupancy word naming the
// non-empty buckets. Only events more than 64 rounds out — long sleeps,
// crash restarts, staggered wake-ups — go to a binary heap, which drains
// each round's events into its bucket as the round begins. A bit scan of
// the bucket then yields the due set in ascending id order, with no sort
// or merge.
//
// Rounds run on one goroutine. The paper's algorithms run in the sleeping
// model, so few nodes are awake in any round, and splitting a round's
// nodes across helper goroutines costs two barriers a round for little
// work to split (DESIGN.md, "One scheduler goroutine").
//
// Determinism contract: the scheduler produces bit-identical Results (and
// observer event streams, and errors) to the reference engine at any fixed
// (graph, config, seed). Both apply the due nodes' actions — halts, errors
// and observer entries included — in ascending id order, and the fault
// path (faultRound) makes the injector's order-sensitive random draws in
// exactly the reference engine's order. The differential tests in
// sched_parity_test.go enforce this contract.

// sched is one run's scheduler state. It is reusable: Pool keeps one and
// rebinds it to consecutive runs so all buffers stay warm.
type sched struct {
	csr       *graph.CSR
	model     Model
	unaryOnly bool
	obs       Observer
	inj       *faults.Injector
	envs      []*Env
	res       *Result
	maxRounds uint64
	done      <-chan struct{}
	ctx       context.Context

	// Round scheduling: cur is the due set of the current round, ascending
	// by id. cal is the round calendar: bucket b, the words
	// cal[b·words:(b+1)·words], is the bitset over node ids of the nodes
	// due in the round ≡ b (mod 64) among the 64 after the current one, and
	// bit b of occ is set when that bucket holds any. heap holds the events
	// farther out.
	cur   []int32
	cal   []uint64
	words int
	occ   uint64
	heap  eventHeap

	// Per-round outcome buffers, reused across rounds.
	txIDs     []int32 // transmitters (ascending); also the bitset clear list
	listeners []int32 // listeners (ascending)
	txBits    []uint64
	txPayload []uint64
	// cursors[id] is the batch the scheduler is consuming from node id and
	// the position of its next intent.
	cursors []cursor

	round  uint64
	active int

	stats RoundStats // observer-only, buffers reused across rounds

	// Perf telemetry (nil unless Config.Perf is set — see perf.go).
	perf *RunPerf
}

// unbind drops the references bind took to one run, keeping the buffers.
func (s *sched) unbind() {
	s.csr, s.obs, s.inj, s.envs, s.res, s.perf = nil, nil, nil, nil, nil, nil
	s.done, s.ctx = nil, nil
}

// coordinate drives one run on the round scheduler, on the run's Pool
// (reusing its buffers and CSR snapshot) when it has one, or on ephemeral
// state for a standalone run.
func coordinate(g *graph.Graph, cfg Config, pool *Pool, inj *faults.Injector, maxRounds uint64, envs []*Env, wakes []uint64, res *Result) error {
	if pool != nil {
		return pool.coordinate(g, &cfg, inj, maxRounds, envs, wakes, res)
	}
	s := &sched{}
	s.bind(graph.BuildCSR(g), &cfg, inj, maxRounds, envs, wakes, res)
	return s.loop()
}

// bind (re)points a scheduler at one run, resizing and resetting all
// scratch. It is the only place per-run state is initialized, so a Pool's
// reused sched cannot leak state between runs.
func (s *sched) bind(csr *graph.CSR, cfg *Config, inj *faults.Injector, maxRounds uint64, envs []*Env, wakes []uint64, res *Result) {
	n := len(envs)
	s.csr = csr
	s.model, s.unaryOnly = cfg.Model, cfg.UnaryOnly
	s.obs = cfg.Observer
	s.inj = inj
	s.envs, s.res = envs, res
	s.maxRounds = maxRounds
	s.ctx = cfg.Ctx
	s.done = nil
	if cfg.Ctx != nil {
		s.done = cfg.Ctx.Done()
	}
	s.active = n
	s.round = 0

	// Perf telemetry is bound before the scratch below so reallocation
	// events are counted; cfg.Perf == nil keeps every site a no-op.
	s.perf = cfg.Perf
	if s.perf != nil {
		s.perf.reset()
	}
	s.words = (n + 63) / 64
	if cap(s.cal) < 64*s.words {
		s.cal = make([]uint64, 64*s.words)
		s.perfGrow()
	}
	s.cal = s.cal[:64*s.words]
	clear(s.cal)
	s.occ = 0
	s.cur = s.cur[:0]
	s.heap = s.heap[:0]
	for id := 0; id < n; id++ {
		s.heap.push(event{round: wakes[id], id: id})
	}
	s.txIDs = s.txIDs[:0]
	s.listeners = s.listeners[:0]

	if cap(s.txBits) < s.words {
		s.txBits = make([]uint64, s.words)
		s.perfGrow()
	}
	s.txBits = s.txBits[:s.words]
	clear(s.txBits)
	if cap(s.txPayload) < n {
		s.txPayload = make([]uint64, n)
		s.perfGrow()
	}
	s.txPayload = s.txPayload[:n]
	if cap(s.cursors) < n {
		s.cursors = make([]cursor, n)
		s.perfGrow()
	}
	s.cursors = s.cursors[:n]
	clear(s.cursors)
}

// cursor is the scheduler's side of one node's batched hand-off: the batch
// it is consuming, the position of the next intent in it, and the rounds
// served so far of the listen run at the position before it.
type cursor struct {
	batch []intent
	pos   int
	ran   uint64
}

// take returns node id's next intent, receiving the node's next batch
// once the current one is spent.
func (s *sched) take(id int32) intent {
	c := &s.cursors[id]
	if c.pos == len(c.batch) {
		s.refill(c, s.envs[id].handoff)
	}
	c.pos++
	return c.batch[c.pos-1]
}

// refill receives a node's next batch from its hand-off channel. When the
// batch has not arrived, the scheduler yields once before it blocks: every
// node readied by the previous round's replies then runs up to its next
// hand-off. Blocking at once would instead make each hand-off ready the
// scheduler into the runtime's run-next slot, so it would wake once per
// missing node rather than once per round.
func (s *sched) refill(c *cursor, handoff chan []intent) {
	select {
	case c.batch = <-handoff:
	default:
		if s.perf != nil {
			s.perf.HandoffWaits++
		}
		runtime.Gosched()
		c.batch = <-handoff
	}
	c.pos = 0
}

// reply hands listener id the reception r of its listen run's latest
// round once the run ends — r is heard, or the run's length is spent —
// after moving the node's clock past the run; otherwise it rewinds id's
// cursor, so the next round serves the same listen intent again without a
// hand-off.
func (s *sched) reply(id int32, r Reception) {
	c := &s.cursors[id]
	c.ran++
	if !r.Heard() && c.ran < c.batch[c.pos-1].arg {
		c.pos--
		return
	}
	c.ran = 0
	env := s.envs[id]
	env.round = s.round + 1
	env.replyCh <- r
}

// loop is the scheduler's round loop: find the next round with a scheduled
// event, run it through the fast or fault path, and stop when every node
// has halted (or terminally crashed).
func (s *sched) loop() error {
	if s.perf != nil {
		start := time.Now()
		s.perf.LoopStart = start
		defer func() { s.perf.finish(time.Since(start)) }()
	}
	for s.active > 0 {
		// Cooperative abort: one non-blocking check per round boundary
		// keeps a cancelled (or timed-out) run from burning CPU through
		// the rest of its simulation.
		select {
		case <-s.done:
			return fmt.Errorf("%w: %w", ErrAborted, context.Cause(s.ctx))
		default:
		}
		r := s.nextRound()
		if r >= s.maxRounds {
			return fmt.Errorf("%w (cap %d)", ErrMaxRounds, s.maxRounds)
		}
		s.round = r
		var err error
		if s.inj == nil {
			if s.perf != nil {
				s.perf.FastRounds++
			}
			err = s.fastRound(r)
		} else {
			if s.perf != nil {
				s.perf.FaultRounds++
			}
			err = s.faultRound(r)
		}
		if err != nil {
			return err
		}
		if s.perf != nil && s.perf.sliceStride != 0 {
			s.perf.sliceTick(r)
		}
	}
	return nil
}

// nextRound returns the earliest round with a scheduled event. Every
// active node has exactly one, so the minimum exists whenever the loop
// runs.
func (s *sched) nextRound() uint64 {
	r := ^uint64(0)
	if s.occ != 0 {
		// Rotate bit base&63 to the bottom: bit k then stands for round
		// base+k.
		base := s.round + 1
		r = base + uint64(bits.TrailingZeros64(bits.RotateLeft64(s.occ, -int(base&63))))
	}
	if len(s.heap) > 0 {
		r = min(r, s.heap.peekRound())
	}
	return r
}

// beginRound resets the per-round buffers, clears the previous round's
// transmitter bits, and materializes the due set for round r: the heap's
// events for r join r's calendar bucket, and a bit scan reads the bucket
// out in ascending id order, clearing it for round r+64.
func (s *sched) beginRound(r uint64) {
	for _, id := range s.txIDs {
		s.txBits[id>>6] &^= 1 << (id & 63)
	}
	s.txIDs = s.txIDs[:0]
	s.listeners = s.listeners[:0]
	if s.obs != nil {
		s.stats = RoundStats{
			Round:        r,
			Transmitters: s.stats.Transmitters[:0],
			Listeners:    s.stats.Listeners[:0],
			Crashed:      s.stats.Crashed[:0],
		}
	}

	s.cur = s.cur[:0]
	b := r & 63
	bucket := s.cal[int(b)*s.words : int(b+1)*s.words]
	for len(s.heap) > 0 && s.heap.peekRound() == r {
		id := s.heap.pop().id
		bucket[id>>6] |= 1 << (id & 63)
		s.occ |= 1 << b
	}
	if s.occ>>b&1 == 0 {
		return
	}
	s.occ &^= 1 << b
	for w, word := range bucket {
		if word == 0 {
			continue
		}
		bucket[w] = 0
		for ; word != 0; word &= word - 1 {
			s.cur = append(s.cur, int32(64*w+bits.TrailingZeros64(word)))
		}
	}
}

// push schedules node id's next event at round, from the current round
// cur: into round's calendar bucket when it is at most 64 rounds out, into
// the heap otherwise.
func (s *sched) push(round, cur uint64, id int32) {
	if round-cur <= 64 {
		b := round & 63
		s.cal[int(b)*s.words+int(id>>6)] |= 1 << (id & 63)
		s.occ |= 1 << b
		return
	}
	s.heap.push(event{round: round, id: int(id)})
}

// action takes node id's next intent and returns its action in round r
// and the round of its next event should the action be a transmit: r+1,
// or for a transmit run the round runRound names.
func (s *sched) action(id int32, r uint64) (intent, uint64) {
	it := s.take(id)
	if it.kind == intentTransmitRun {
		return s.runRound(id, it, r)
	}
	return it, r + 1
}

// runRound serves round r of node id's transmit run, whose header hdr the
// node's cursor has just taken; the cursor's ran holds the round's offset
// in the run. It returns the round's action — a transmit of the run's
// payload, or a sleep through the gap before the run's first transmit —
// and the round of the node's next event: the run's next transmit, or the
// round after the run. The cursor stays on the header while transmits
// remain and moves past the run's payload slot after the last.
func (s *sched) runRound(id int32, hdr intent, r uint64) (intent, uint64) {
	c := &s.cursors[id]
	i := c.ran
	payload := c.batch[c.pos].arg
	// The next set bit of the header above offset i: the run's next
	// transmit, or the span marker when none is left.
	j := i + 1 + uint64(bits.TrailingZeros64(hdr.arg>>(i+1)))
	if hdr.arg>>j == 1 {
		c.ran = 0
		c.pos++
	} else {
		c.ran = j
		c.pos--
	}
	if hdr.arg>>i&1 == 0 {
		return intent{kind: intentSleep, arg: j - i}, r + j - i
	}
	return intent{kind: intentTransmit, arg: payload, phase: hdr.phase}, r + j - i
}

// apply applies node id's action it in round r, as the reference engine
// does: transmitter bit and payload, energy, listener set, observer
// entries, the node's next event (next, for a transmit), and a halt's
// output, halt round and observer call. A node error — a non-unary payload
// under UnaryOnly or an unknown intent — ends the run at once, so the
// observer sees the halts of lower ids only.
func (s *sched) apply(id int32, it intent, next, r uint64) error {
	switch it.kind {
	case intentTransmit:
		if s.unaryOnly && it.arg != 1 {
			return fmt.Errorf("%w: node %d sent %#x", ErrNotUnary, id, it.arg)
		}
		s.txBits[id>>6] |= 1 << (id & 63)
		s.txPayload[id] = it.arg
		s.txIDs = append(s.txIDs, id)
		s.res.Energy[id]++
		if s.obs != nil {
			s.stats.Transmitters = append(s.stats.Transmitters, NodeTx{ID: int(id), Phase: it.phase, Payload: it.arg})
		}
		s.push(next, r, id)
	case intentListen:
		s.listeners = append(s.listeners, id)
		s.res.Energy[id]++
		if s.obs != nil {
			s.stats.Listeners = append(s.stats.Listeners, NodeRx{ID: int(id), Phase: it.phase})
		}
		s.push(r+1, r, id)
	case intentSleep:
		s.push(r+it.arg, r, id)
	case intentHalt:
		s.res.Outputs[id] = int64(it.arg)
		s.res.HaltRound[id] = r
		s.active--
		if s.obs != nil {
			s.obs.ObserveHalt(int(id), int64(it.arg), s.res.Energy[id], r)
		}
	default:
		return fmt.Errorf("radio: node %d submitted unknown intent %d", id, it.kind)
	}
	return nil
}

// fastRound runs one clean (fault-free) round: apply each due node's
// action, then, unless the round held only sleeps and halts, count each
// listener's transmitting neighbors by scanning its CSR row against the
// transmitter bitset, classify the reception under the model, and reply.
func (s *sched) fastRound(r uint64) error {
	s.beginRound(r)
	for _, id := range s.cur {
		it, next := s.action(id, r)
		if err := s.apply(id, it, next, r); err != nil {
			return err
		}
	}
	if len(s.txIDs) == 0 && len(s.listeners) == 0 {
		return nil // only sleeps and halts: time passes, nothing happened
	}
	obs := s.obs != nil
	for k, id := range s.listeners {
		physical := 0
		var payload uint64
		for _, w := range s.csr.Neighbors(int(id)) {
			if s.txBits[w>>6]>>(uint(w)&63)&1 != 0 {
				physical++
				payload = s.txPayload[w]
			}
		}
		reception := perceive(s.model, physical, payload)
		if obs {
			rx := &s.stats.Listeners[k]
			rx.TxNeighbors = physical
			rx.Delivered = physical
			rx.Outcome = reception.Kind
			switch {
			case physical == 0:
				s.stats.Silences++
			case physical == 1:
				s.stats.Successes++
			default:
				s.stats.Collisions++
			}
		}
		s.reply(id, reception)
	}
	s.res.Rounds = r + 1
	if obs {
		s.obs.ObserveRound(&s.stats)
	}
	return nil
}

// faultRound runs one round with a fault injector attached, drawing from
// it in exactly the reference engine's order: a crash hazard per awake
// action as the due nodes' actions apply in ascending id order, then the
// jam decision, then per-delivery losses and per-listener noise as the
// listeners hear in ascending id order.
func (s *sched) faultRound(r uint64) error {
	s.beginRound(r)
	obs, inj, res := s.obs != nil, s.inj, s.res
	crashes := 0
	for _, id := range s.cur {
		it, next := s.action(id, r)
		// Crash faults strike awake actions: the node dies before the
		// action takes effect (no transmission, no listen, no energy
		// charged). The signal rendezvous guarantees the old life is
		// unwinding before the round proceeds.
		if (it.kind == intentTransmit || it.kind == intentListen) && inj.CrashesNow(int(id)) {
			env := s.envs[id]
			delay, restart := inj.Restart(int(id))
			env.crashCh <- crashSignal{restart: restart, resumeRound: r + delay}
			// The dead life's unconsumed intents die with it; the node
			// discards its own side of the hand-off (Env.restart).
			s.cursors[id] = cursor{}
			if restart {
				// Rendezvous with the supervisor: wait until the old life
				// is fully unwound and drained, so the scheduler cannot
				// reach round r+delay and consume a stale intent the dying
				// life buffered on its way down.
				<-env.crashCh
				s.push(r+delay, r, id)
			} else {
				res.Crashed[id] = true
				s.active--
			}
			crashes++
			if obs {
				s.stats.Crashed = append(s.stats.Crashed, int(id))
			}
			continue
		}
		if err := s.apply(id, it, next, r); err != nil {
			return err
		}
	}

	// The jamming adversary observes the round's contention (the surviving
	// transmitter count) and greedily decides whether to spend budget; a
	// jammed round adds collision-level interference at every listener.
	jammed := false
	if len(s.txIDs) > 0 {
		jammed = inj.JamRound(len(s.txIDs))
		if obs {
			s.stats.Jammed = jammed
		}
	}

	// Deliver receptions in ascending listener order: each
	// transmitter→listener delivery passes the loss filter, and
	// noise/jamming add phantom transmitters that the collision rule
	// perceives but no node sent.
	for k, id := range s.listeners {
		physical := 0  // transmitting neighbors (ground truth)
		delivered := 0 // deliveries surviving the loss model
		var payload uint64
		for _, w := range s.csr.Neighbors(int(id)) {
			if s.txBits[w>>6]>>(uint(w)&63)&1 == 0 {
				continue
			}
			physical++
			if !inj.Delivered() {
				continue
			}
			delivered++
			payload = s.txPayload[w]
		}
		effective := delivered
		if jammed {
			effective += 2
		}
		if inj.NoiseAt() {
			effective += 2
			if obs {
				s.stats.Noised++
			}
		}
		reception := perceive(s.model, effective, payload)
		if obs {
			rx := &s.stats.Listeners[k]
			rx.TxNeighbors = physical
			rx.Delivered = delivered
			rx.Outcome = reception.Kind
			s.stats.Lost += physical - delivered
			switch {
			case effective == 0:
				s.stats.Silences++
			case effective == 1:
				s.stats.Successes++
			default:
				s.stats.Collisions++
			}
		}
		s.reply(id, reception)
	}

	if len(s.txIDs) > 0 || len(s.listeners) > 0 || crashes > 0 {
		res.Rounds = r + 1
		if obs {
			s.obs.ObserveRound(&s.stats)
		}
	}
	return nil
}
