package radio

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// This file implements the engine's round scheduler: a phase-barrier design
// where a fixed pool of worker shards advances all awake nodes one round at
// a time. It replaces the pre-rework coordinator (reference.go), which
// serviced every node sequentially from a single goroutine, with four
// cooperating ideas:
//
//   - Sharding. Nodes are partitioned into contiguous, 64-aligned id
//     ranges. Each round runs as two barrier-separated phases — collect
//     (consume due intents, mark transmissions, schedule next events) and
//     receive (aggregate receptions, reply to listeners) — executed by one
//     worker per shard. Worker 0 is the coordinating goroutine itself, so
//     single-shard runs have no barrier or hand-off cost at all.
//   - CSR + bitset aggregation. Adjacency is snapshot once per run into a
//     compressed-sparse-row array (graph.CSR) and the round's transmitters
//     into a bitset, so the reception sweep is a dense scan over two
//     cache-resident arrays instead of pointer-chasing per-node slices.
//     Because shard boundaries are 64-aligned, every bitset word belongs to
//     exactly one shard and phases need no atomics.
//   - Pooled round buffers. Due lists, next-round buckets, transmitter and
//     listener sets, observer scratch, and the bitset are all reused across
//     rounds (and, via Pool, across runs), so the steady-state scheduler
//     allocates nothing per round — the nil-observer zero-alloc guarantee
//     of the pre-rework engine is preserved.
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
// gaps of sleeps and transmit runs are mostly a few rounds long. Each
// shard keeps a round calendar of 64 buckets, one per round of the next
// 64, each a bitset over the shard's ids (shard bounds are 64-aligned, so
// bit positions are id bits), plus one occupancy word naming the
// non-empty buckets. Only events more than 64 rounds out — long sleeps,
// crash restarts, staggered wake-ups — go to the per-shard binary heap,
// which drains each round's events into its bucket as the round begins.
// A bit scan of the bucket then yields the due set in ascending id order,
// with no sort or merge.
//
// Determinism contract: the scheduler produces bit-identical Results (and
// observer event streams, and errors) to the reference engine at any fixed
// (graph, config, seed), for every shard count. Cross-shard merges happen
// in shard order, which is id order because shards are contiguous ranges;
// and fault injection — whose random draws are order-sensitive — runs on
// the sequential path below (faultRound), preserving the reference draw
// order exactly. The differential tests in sched_parity_test.go enforce
// this contract.

const (
	// shardAlign is the alignment of shard boundaries. Keeping boundaries
	// on multiples of 64 makes every word of the transmitter bitset
	// exclusive to one shard, so phase-1 writes need no synchronization.
	shardAlign = 64
	// minShardNodes is the smallest node range worth a dedicated worker;
	// below it, barrier overhead dominates any parallelism win.
	minShardNodes = 512
)

// haltEv records one node halt within a round, for deferred accounting
// (active count, Result.HaltRound, observer) after the collect barrier.
type haltEv struct {
	id     int32
	output int64
}

// schedErr records the first per-round node error a shard encountered
// (non-unary payload or unknown intent kind), merged across shards by id.
type schedErr struct {
	id      int32 // -1 when no error
	kind    intentKind
	payload uint64
}

// shard is one contiguous node range of the round scheduler together with
// all its per-round scratch. A shard is touched by exactly one worker
// during a phase; the coordinator reads it only between barriers.
type shard struct {
	lo, hi int // node id range [lo, hi)

	// Round scheduling: cur is the due set of the current round, ascending
	// by id. cal is the round calendar: bucket b, the words
	// cal[b·words:(b+1)·words], is the bitset over the shard's ids of the
	// nodes due in the round ≡ b (mod 64) among the 64 after the current
	// one, and bit b of occ is set when that bucket holds any. heap holds
	// the events farther out.
	cur   []int32
	cal   []uint64
	words int
	occ   uint64
	heap  eventHeap

	// intents holds the round's collected intents, parallel to cur. The
	// fast path applies intents as it collects; the fault path collects
	// first and lets the coordinator apply sequentially.
	intents []intent

	// Per-round outcome buffers, reused across rounds.
	txIDs     []int32 // transmitters (ascending); also the bitset clear list
	listeners []int32 // listeners (ascending)
	halts     []haltEv
	err       schedErr

	// waits counts the shard's hand-off waits since the last perfFold
	// (perf runs only; see refill).
	waits uint64

	// Observer scratch (untouched when no observer is attached).
	tx                              []NodeTx
	rx                              []NodeRx
	successes, collisions, silences int
}

// sched is one run's scheduler state. It is reusable: Pool keeps one and
// rebinds it to consecutive runs so all buffers stay warm.
type sched struct {
	g         *graph.Graph
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

	shards    []shard
	txBits    []uint64
	txPayload []uint64
	// cursors[id] is the batch the scheduler is consuming from node id and
	// the position of its next intent. A node's cursor is touched only by
	// the worker of its shard.
	cursors []cursor

	round  uint64
	active int

	stats RoundStats // observer-only, buffers reused across rounds

	// Perf telemetry (nil/unused unless Config.Perf is set — see perf.go).
	// phaseNs holds one dispatch's per-shard phase durations; each worker
	// writes only its own slot during the phase, the coordinator reads
	// after the barrier.
	perf    *RunPerf
	phaseNs []int64

	ws *workerSet // nil means all phases run inline on the coordinator
}

// unbind drops the references bind took to one run, keeping the buffers.
func (s *sched) unbind() {
	s.g, s.csr, s.obs, s.inj, s.envs, s.res, s.perf = nil, nil, nil, nil, nil, nil, nil
	s.done, s.ctx = nil, nil
}

// phaseKind selects the work a worker performs on its shard.
type phaseKind int

const (
	// phaseFast: begin the round, collect due intents, and apply them
	// (clean runs only — application is order-insensitive across shards).
	phaseFast phaseKind = iota + 1
	// phaseCollect: begin the round and collect due intents without
	// applying them (fault runs — the coordinator applies sequentially to
	// preserve the injector's draw order).
	phaseCollect
	// phaseReceive: aggregate receptions for the shard's listeners and
	// reply (clean runs only).
	phaseReceive
)

// workerSet is the fixed helper-goroutine pool behind multi-shard runs.
// Worker 0 is always the coordinating goroutine; a workerSet adds helpers
// for shards 1..n. It is reused across runs when owned by a Pool.
type workerSet struct {
	start []chan struct{}
	wg    sync.WaitGroup
	s     *sched
	ph    phaseKind
}

// newWorkerSet spawns helpers persistent helper goroutines.
func newWorkerSet(helpers int) *workerSet {
	ws := &workerSet{start: make([]chan struct{}, helpers)}
	for i := range ws.start {
		ws.start[i] = make(chan struct{})
		go func(i int) {
			for range ws.start[i] {
				ws.s.runPhase(ws.ph, i+1)
				ws.wg.Done()
			}
		}(i)
	}
	return ws
}

// close terminates the helper goroutines.
func (ws *workerSet) close() {
	for _, c := range ws.start {
		close(c)
	}
}

// dispatch runs one phase across the first `shards` shards: helpers take
// shards 1.., the caller's goroutine takes shard 0, and dispatch returns
// once every engaged shard finished (the phase barrier).
func (s *sched) dispatch(ph phaseKind) {
	k := len(s.shards)
	if k == 1 || s.ws == nil {
		for i := 0; i < k; i++ {
			s.runPhase(ph, i)
		}
	} else {
		ws := s.ws
		ws.s, ws.ph = s, ph
		ws.wg.Add(k - 1)
		for i := 0; i < k-1; i++ {
			ws.start[i] <- struct{}{}
		}
		s.runPhase(ph, 0)
		ws.wg.Wait()
	}
	if s.perf != nil {
		s.perfFold()
	}
}

func (s *sched) runPhase(ph phaseKind, i int) {
	var start time.Time
	if s.perf != nil {
		start = time.Now()
	}
	sh := &s.shards[i]
	switch ph {
	case phaseFast:
		sh.beginRound(s.round, s.txBits)
		s.collectApply(sh)
	case phaseCollect:
		sh.beginRound(s.round, s.txBits)
		s.collect(sh)
	case phaseReceive:
		s.receive(sh)
	}
	if s.perf != nil {
		s.phaseNs[i] = time.Since(start).Nanoseconds()
	}
}

// shardCount picks the number of shards for a run of n nodes: enough to
// use the available parallelism, never so many that shards fall below
// minShardNodes, and at most what an installed Pool provides.
func shardCount(cfg *Config, n, poolMax int) int {
	w := cfg.Shards
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if useful := (n + minShardNodes - 1) / minShardNodes; w > useful {
			w = useful
		}
	}
	if poolMax > 0 && w > poolMax {
		w = poolMax
	}
	if hard := (n + shardAlign - 1) / shardAlign; w > hard {
		w = hard
	}
	if w < 1 {
		w = 1
	}
	return w
}

// coordinate drives one run on the sharded scheduler, on the run's Pool
// (reusing its workers, buffers, and CSR snapshot) when it has one, or on
// ephemeral state for a standalone run.
func coordinate(g *graph.Graph, cfg Config, pool *Pool, inj *faults.Injector, maxRounds uint64, envs []*Env, wakes []uint64, res *Result) error {
	if pool != nil {
		return pool.coordinate(g, &cfg, inj, maxRounds, envs, wakes, res)
	}
	s := &sched{}
	s.bind(g, graph.BuildCSR(g), &cfg, inj, maxRounds, envs, wakes, res, shardCount(&cfg, g.N(), 0))
	if len(s.shards) > 1 {
		s.ws = newWorkerSet(len(s.shards) - 1)
		defer s.ws.close()
	}
	return s.loop()
}

// bind (re)points a scheduler at one run, resizing and resetting all
// scratch. It is the only place per-run state is initialized, so a Pool's
// reused sched cannot leak state between runs.
func (s *sched) bind(g *graph.Graph, csr *graph.CSR, cfg *Config, inj *faults.Injector, maxRounds uint64, envs []*Env, wakes []uint64, res *Result, nShards int) {
	n := len(envs)
	s.g, s.csr = g, csr
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

	// Shard the id space into 64-aligned contiguous ranges.
	size := (n + nShards - 1) / nShards
	size = (size + shardAlign - 1) / shardAlign * shardAlign
	nShards = (n + size - 1) / size
	// Perf telemetry is bound before the scratch below so reallocation
	// events are counted; cfg.Perf == nil keeps every site a no-op.
	s.perf = cfg.Perf
	if s.perf != nil {
		s.perf.reset(nShards)
		if cap(s.phaseNs) < nShards {
			s.phaseNs = make([]int64, nShards)
		}
		s.phaseNs = s.phaseNs[:nShards]
	}
	if cap(s.shards) < nShards {
		s.shards = make([]shard, nShards)
		s.perfGrow()
	}
	s.shards = s.shards[:nShards]
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lo = i * size
		sh.hi = min(n, (i+1)*size)
		sh.cur = sh.cur[:0]
		sh.words = (sh.hi - sh.lo + 63) / 64
		if cap(sh.cal) < 64*sh.words {
			sh.cal = make([]uint64, 64*sh.words)
			s.perfGrow()
		}
		sh.cal = sh.cal[:64*sh.words]
		clear(sh.cal)
		sh.occ = 0
		sh.heap = sh.heap[:0]
		sh.txIDs = sh.txIDs[:0]
		sh.listeners = sh.listeners[:0]
		sh.halts = sh.halts[:0]
		sh.waits = 0
		for id := sh.lo; id < sh.hi; id++ {
			sh.heap.push(event{round: wakes[id], id: id})
		}
	}

	words := (n + 63) / 64
	if cap(s.txBits) < words {
		s.txBits = make([]uint64, words)
		s.perfGrow()
	}
	s.txBits = s.txBits[:words]
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
func (s *sched) take(sh *shard, id int32) intent {
	c := &s.cursors[id]
	if c.pos == len(c.batch) {
		s.refill(sh, c, s.envs[id].handoff)
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
func (s *sched) refill(sh *shard, c *cursor, handoff chan []intent) {
	select {
	case c.batch = <-handoff:
	default:
		if s.perf != nil {
			sh.waits++
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

// nextRound returns the earliest round any shard has an event for. Every
// active node has exactly one scheduled event, so the minimum exists
// whenever the loop runs.
func (s *sched) nextRound() uint64 {
	r := ^uint64(0)
	base := s.round + 1
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.occ != 0 {
			// Rotate bit base&63 to the bottom: bit k then stands for
			// round base+k.
			ahead := uint64(bits.TrailingZeros64(bits.RotateLeft64(sh.occ, -int(base&63))))
			if ahead == 0 {
				return base // nothing anywhere can beat the next round
			}
			r = min(r, base+ahead)
		}
		if len(sh.heap) > 0 {
			r = min(r, sh.heap.peekRound())
		}
	}
	return r
}

// beginRound resets the shard's per-round buffers, clears its transmitter
// bits from the previous round, and materializes the due set for round r:
// the heap's events for r join r's calendar bucket, and a bit scan reads
// the bucket out in ascending id order, clearing it for round r+64.
func (sh *shard) beginRound(r uint64, txBits []uint64) {
	for _, id := range sh.txIDs {
		txBits[id>>6] &^= 1 << (id & 63)
	}
	sh.txIDs = sh.txIDs[:0]
	sh.listeners = sh.listeners[:0]
	sh.halts = sh.halts[:0]
	sh.err = schedErr{id: -1}

	sh.cur = sh.cur[:0]
	b := r & 63
	bucket := sh.cal[int(b)*sh.words : int(b+1)*sh.words]
	for len(sh.heap) > 0 && sh.heap.peekRound() == r {
		rel := sh.heap.pop().id - sh.lo
		bucket[rel>>6] |= 1 << (rel & 63)
		sh.occ |= 1 << b
	}
	if sh.occ>>b&1 == 0 {
		return
	}
	sh.occ &^= 1 << b
	for w, word := range bucket {
		if word == 0 {
			continue
		}
		bucket[w] = 0
		base := int32(sh.lo + 64*w)
		for ; word != 0; word &= word - 1 {
			sh.cur = append(sh.cur, base+int32(bits.TrailingZeros64(word)))
		}
	}
}

// push schedules node id's next event at round, from the current round
// cur: into round's calendar bucket when it is at most 64 rounds out, into
// the heap otherwise.
func (sh *shard) push(round, cur uint64, id int32) {
	if round-cur <= 64 {
		b := round & 63
		rel := int(id) - sh.lo
		sh.cal[int(b)*sh.words+rel>>6] |= 1 << (rel & 63)
		sh.occ |= 1 << b
		return
	}
	sh.heap.push(event{round: round, id: int(id)})
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

// collectApply is the clean-path phase 1: consume each due node's intent
// and apply it — transmitter bits and payloads, energy accounting, next
// event scheduling, listener and halt sets, observer scratch. All writes
// land in shard-owned state or per-node result slots, so shards never
// contend.
func (s *sched) collectApply(sh *shard) {
	obs := s.obs != nil
	r := s.round
	if obs {
		sh.tx = sh.tx[:0]
		sh.rx = sh.rx[:0]
	}
	for _, id := range sh.cur {
		it := s.take(sh, id)
		next := r + 1
		if it.kind == intentTransmitRun {
			it, next = s.runRound(id, it, r)
		}
		switch it.kind {
		case intentTransmit:
			if s.unaryOnly && it.arg != 1 && sh.err.id < 0 {
				sh.err = schedErr{id: id, kind: intentTransmit, payload: it.arg}
			}
			s.txBits[id>>6] |= 1 << (id & 63)
			s.txPayload[id] = it.arg
			sh.txIDs = append(sh.txIDs, id)
			s.res.Energy[id]++
			if obs {
				sh.tx = append(sh.tx, NodeTx{ID: int(id), Phase: it.phase, Payload: it.arg})
			}
			sh.push(next, r, id)
		case intentListen:
			sh.listeners = append(sh.listeners, id)
			s.res.Energy[id]++
			if obs {
				sh.rx = append(sh.rx, NodeRx{ID: int(id), Phase: it.phase})
			}
			sh.push(r+1, r, id)
		case intentSleep:
			sh.push(r+it.arg, r, id)
		case intentHalt:
			s.res.Outputs[id] = int64(it.arg)
			sh.halts = append(sh.halts, haltEv{id: id, output: int64(it.arg)})
		default:
			if sh.err.id < 0 {
				sh.err = schedErr{id: id, kind: it.kind}
			}
		}
	}
}

// collect is the fault-path phase 1: consume due intents into the shard's
// intent buffer without applying them, so the coordinator can interleave
// the injector's order-sensitive draws exactly like the reference engine.
func (s *sched) collect(sh *shard) {
	if cap(sh.intents) < len(sh.cur) {
		sh.intents = make([]intent, len(sh.cur))
	}
	sh.intents = sh.intents[:len(sh.cur)]
	for k, id := range sh.cur {
		sh.intents[k] = s.take(sh, id)
	}
}

// receive is the clean-path phase 2: for each of the shard's listeners,
// count transmitting neighbors by scanning its CSR row against the
// transmitter bitset, classify the reception under the model, and reply.
func (s *sched) receive(sh *shard) {
	obs := s.obs != nil
	for k, id := range sh.listeners {
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
			rx := &sh.rx[k]
			rx.TxNeighbors = physical
			rx.Delivered = physical
			rx.Outcome = reception.Kind
			switch {
			case physical == 0:
				sh.silences++
			case physical == 1:
				sh.successes++
			default:
				sh.collisions++
			}
		}
		s.reply(id, reception)
	}
}

// fastRound runs one clean (fault-free) round: a parallel collect+apply
// phase, a merge on the coordinator, and a parallel receive phase.
func (s *sched) fastRound(r uint64) error {
	s.dispatch(phaseFast)

	// Merge shard outcomes in shard order — id order, since shards are
	// contiguous ranges.
	nTx, nListen := 0, 0
	bad := schedErr{id: -1}
	for i := range s.shards {
		sh := &s.shards[i]
		nTx += len(sh.txIDs)
		nListen += len(sh.listeners)
		if sh.err.id >= 0 && bad.id < 0 {
			bad = sh.err
		}
	}
	// Node errors abort the run exactly like the reference engine: halts
	// of lower-id nodes are still observed, everything from the erroring
	// node on is not.
	for i := range s.shards {
		sh := &s.shards[i]
		for _, h := range sh.halts {
			if bad.id >= 0 && h.id >= bad.id {
				break
			}
			s.active--
			s.res.HaltRound[h.id] = r
			if s.obs != nil {
				s.obs.ObserveHalt(int(h.id), h.output, s.res.Energy[h.id], r)
			}
		}
	}
	if bad.id >= 0 {
		if bad.kind == intentTransmit {
			return fmt.Errorf("%w: node %d sent %#x", ErrNotUnary, bad.id, bad.payload)
		}
		return fmt.Errorf("radio: node %d submitted unknown intent %d", bad.id, bad.kind)
	}

	if nTx == 0 && nListen == 0 {
		return nil // only sleeps and halts: time passes, nothing happened
	}
	s.dispatch(phaseReceive)
	s.res.Rounds = r + 1
	if s.obs != nil {
		s.mergeStats(r)
		s.obs.ObserveRound(&s.stats)
	}
	return nil
}

// mergeStats assembles the round's RoundStats from the shards' scratch, in
// shard (= id) order, reusing the scheduler's buffers.
func (s *sched) mergeStats(r uint64) {
	s.stats = RoundStats{
		Round:        r,
		Transmitters: s.stats.Transmitters[:0],
		Listeners:    s.stats.Listeners[:0],
		Crashed:      s.stats.Crashed[:0],
	}
	for i := range s.shards {
		sh := &s.shards[i]
		s.stats.Transmitters = append(s.stats.Transmitters, sh.tx...)
		s.stats.Listeners = append(s.stats.Listeners, sh.rx...)
		s.stats.Successes += sh.successes
		s.stats.Collisions += sh.collisions
		s.stats.Silences += sh.silences
		sh.successes, sh.collisions, sh.silences = 0, 0, 0
	}
}

// faultRound runs one round with a fault injector attached. Intents are
// still collected in parallel (no random draws there), but application and
// reception run sequentially on the coordinator in ascending id order, so
// every injector draw — crash hazards per awake action, the jam decision,
// per-delivery losses, per-listener noise — happens in exactly the
// reference engine's order and fault runs stay bit-identical too.
func (s *sched) faultRound(r uint64) error {
	s.dispatch(phaseCollect)

	obs, inj, res := s.obs, s.inj, s.res
	if obs != nil {
		s.stats = RoundStats{
			Round:        r,
			Transmitters: s.stats.Transmitters[:0],
			Listeners:    s.stats.Listeners[:0],
			Crashed:      s.stats.Crashed[:0],
		}
	}
	nTx, crashes := 0, 0
	for i := range s.shards {
		sh := &s.shards[i]
		for k, id := range sh.cur {
			it := sh.intents[k]
			next := r + 1
			if it.kind == intentTransmitRun {
				it, next = s.runRound(id, it, r)
			}
			env := s.envs[id]
			// Crash faults strike awake actions: the node dies before the
			// action takes effect (no transmission, no listen, no energy
			// charged). The signal rendezvous guarantees the old life is
			// unwinding before the round proceeds.
			if (it.kind == intentTransmit || it.kind == intentListen) && inj.CrashesNow(int(id)) {
				delay, restart := inj.Restart(int(id))
				env.crashCh <- crashSignal{restart: restart, resumeRound: r + delay}
				// The dead life's unconsumed intents die with it; the node
				// discards its own side of the hand-off (Env.restart).
				s.cursors[id] = cursor{}
				if restart {
					// Rendezvous with the supervisor: wait until the old
					// life is fully unwound and drained, so the scheduler
					// cannot reach round r+delay and consume a stale intent
					// the dying life buffered on its way down.
					<-env.crashCh
					sh.push(r+delay, r, id)
				} else {
					res.Crashed[id] = true
					s.active--
				}
				crashes++
				if obs != nil {
					s.stats.Crashed = append(s.stats.Crashed, int(id))
				}
				continue
			}
			switch it.kind {
			case intentTransmit:
				if s.unaryOnly && it.arg != 1 {
					return fmt.Errorf("%w: node %d sent %#x", ErrNotUnary, id, it.arg)
				}
				s.txBits[id>>6] |= 1 << (id & 63)
				s.txPayload[id] = it.arg
				sh.txIDs = append(sh.txIDs, id)
				nTx++
				res.Energy[id]++
				if obs != nil {
					s.stats.Transmitters = append(s.stats.Transmitters, NodeTx{ID: int(id), Phase: it.phase, Payload: it.arg})
				}
				sh.push(next, r, id)
			case intentListen:
				sh.listeners = append(sh.listeners, id)
				res.Energy[id]++
				if obs != nil {
					s.stats.Listeners = append(s.stats.Listeners, NodeRx{ID: int(id), Phase: it.phase})
				}
				sh.push(r+1, r, id)
			case intentSleep:
				sh.push(r+it.arg, r, id)
			case intentHalt:
				res.Outputs[id] = int64(it.arg)
				res.HaltRound[id] = r
				s.active--
				if obs != nil {
					obs.ObserveHalt(int(id), int64(it.arg), res.Energy[id], r)
				}
			default:
				return fmt.Errorf("radio: node %d submitted unknown intent %d", id, it.kind)
			}
		}
	}

	// The jamming adversary observes the round's contention (the surviving
	// transmitter count) and greedily decides whether to spend budget; a
	// jammed round adds collision-level interference at every listener.
	jammed := false
	if nTx > 0 {
		jammed = inj.JamRound(nTx)
		if obs != nil {
			s.stats.Jammed = jammed
		}
	}

	// Deliver receptions in ascending listener order: each
	// transmitter→listener delivery passes the loss filter, and
	// noise/jamming add phantom transmitters that the collision rule
	// perceives but no node sent.
	nListen, li := 0, 0
	for i := range s.shards {
		sh := &s.shards[i]
		nListen += len(sh.listeners)
		for _, id := range sh.listeners {
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
				if obs != nil {
					s.stats.Noised++
				}
			}
			reception := perceive(s.model, effective, payload)
			if obs != nil {
				rx := &s.stats.Listeners[li]
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
			li++
			s.reply(id, reception)
		}
	}

	if nTx > 0 || nListen > 0 || crashes > 0 {
		res.Rounds = r + 1
		if obs != nil {
			obs.ObserveRound(&s.stats)
		}
	}
	return nil
}
