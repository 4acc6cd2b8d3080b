package radio

import (
	"context"
	"fmt"
	"math/bits"

	"radiomis/internal/graph"
)

// This file implements the bit-parallel lockstep trial engine: up to 64
// independent trials ("lanes") of the same program on the same graph,
// advanced simultaneously with one word of lane state per node. Where the
// scalar scheduler (sched.go) runs one goroutine per node and moves one
// trial per run, the lockstep engine runs no node goroutines at all: node
// programs are compiled into lane state machines (LaneProgram) that the
// coordinator calls once per (node, due round), and every per-round
// quantity — who transmits, who listens, who heard something — is a lane
// mask. Reception is resolved branch-free for all lanes at once by
// carry-save accumulation over the CSR adjacency snapshot: OR-ing
// neighbor transmit masks into (ones, twos) partial sums yields
// "≥1 transmitter" and "≥2 transmitters" per lane without examining lanes
// individually.
//
// Lane scheduling never scans lanes either. Each node keeps a short list
// of (round, lane mask) events, ascending by round with disjoint masks:
// the head is the node's due mask, and the next head is the round the
// node re-enters the round scheduler at. Transmitters, listeners and
// one-round sleepers share one next-round event; longer sleepers are
// grouped by wake round, one insertion per distinct round. A lane killed
// by an error only leaves the alive mask; its events still queued at
// other nodes are dropped when they reach a list's head.
//
// Determinism contract: lane l of RunLockstep(g, cfg, lp, seeds) produces
// a Result bit-identical to the scalar Run(g, cfg′, program) with
// cfg′.Seed = seeds[l], where program is the scalar twin of lp. The
// lockstep parity tests enforce this per lane across the scalar parity
// matrix (clean, wake staggering, unary violations, round caps, pooled
// reruns, ragged lane counts). Divergent control flow — faults,
// crash-restart, observers, tracers — is out of scope by design: those
// runs fall back to the scalar engine (see mis.RunMany), keeping this
// loop free of per-lane branching.

// MaxLanes is the lane capacity of one lockstep run: one bit per lane in
// a 64-bit word.
const MaxLanes = 64

// LaneActions is the out-parameter of LaneProgram.Step: the actions of
// one node's due lanes this round. Transmit, Listen, and Halt are lane
// masks; every due lane not claimed by one of them sleeps for its
// Sleep[lane] rounds (which must be ≥ 1 — the scalar engine's Sleep(0)
// no-op never reaches the scheduler, so a lane with nothing to do simply
// does not schedule an action; a zero is clamped to 1 to keep a buggy
// program from freezing the round clock).
//
// Output[lane] is the program's return value for halting lanes.
// Payload[lane] (with HasPayload set) optionally carries a transmit
// payload for UnaryOnly checking; when HasPayload is false all
// transmissions are the unary bit 1. Lane payloads do not reach
// receivers: lane programs are heard-only by contract (see LaneProgram).
type LaneActions struct {
	Transmit uint64
	Listen   uint64
	Halt     uint64

	Sleep  [MaxLanes]uint64
	Output [MaxLanes]int64

	Payload    [MaxLanes]uint64
	HasPayload bool
}

// LaneProgram is a node program compiled to a lane state machine. One
// value serves all (node, lane) pairs of a run; Bind sizes its state for
// n nodes and len(seeds) lanes, with lane l of node v drawing randomness
// from the stream rng.Mix(seeds[l], v) — the exact stream the scalar
// engine hands that node via rng.ForNode(seeds[l], v).
//
// Step is called once for node `node` at each round where at least one of
// its lanes has a scheduled event; `due` masks those lanes. The program
// must fill act with one action per due lane and must not touch other
// lanes. `heard` carries the node's latest reception per lane: bit l is
// meaningful only if lane l's previous action was Listen, and is set iff
// that listen perceived a non-silent channel under the run's model
// (message or collision for ModelCD, exactly-one transmitter for
// ModelNoCD, any beep for ModelBeep). Lane programs may branch on Heard()
// only — payload-dependent control flow cannot be expressed, which is
// precisely what keeps the engine branch-free; programs that need
// payloads use the scalar engine.
//
// Step runs on the coordinator with no concurrency; implementations may
// freely mutate shared state and must be deterministic.
type LaneProgram interface {
	Bind(n int, seeds []uint64)
	Step(node int, due, heard uint64, act *LaneActions)
}

// laneEvent is one entry of a node's event list: the lanes of the node
// that act next at round.
type laneEvent struct {
	round uint64
	lanes uint64
}

// LockstepBatch is the outcome of one RunLockstep call: per-lane results,
// per-lane errors, and per-lane halt rounds.
type LockstepBatch struct {
	// Results holds one Result per lane, in seed order. A lane's Result
	// is always non-nil; on a lane error it carries the partial state at
	// the point the lane died (matching the scalar engine's behavior for
	// the same error).
	Results []*Result
	// Errs holds the lane's terminal error, nil for lanes that ran to
	// completion. Lane errors match the scalar engine's: ErrNotUnary for
	// UnaryOnly violations (lowest offending node wins), ErrMaxRounds
	// when the lane's next event would be at or past the round cap,
	// ErrAborted (wrapping the context cause) on cancellation.
	Errs []error
	// HaltRounds[l][v] is the round at which node v's program halted in
	// lane l (the scalar Tracer.NodeHalted round), or 0 if it never
	// halted. Callers that need per-node decision rounds read them here;
	// the lockstep engine has no Tracer.
	HaltRounds [][]uint64
}

// lockstep is one run's lockstep scheduler state. Like sched, it is
// reusable: a Pool keeps one and rebinds it across batches so all scratch
// stays warm.
type lockstep struct {
	csr       *graph.CSR
	model     Model
	unaryOnly bool
	ctx       context.Context
	done      <-chan struct{}
	maxRounds uint64
	lanes     int
	n         int

	// Per-node event lists. Node v's list is events[v*MaxLanes:][:evLen[v]],
	// stored latest round first so that its head — the earliest round —
	// is the last entry: popping the head and pushing a next-round event
	// touch only the end. Every lane sits in at most one event of a node,
	// so MaxLanes entries always suffice.
	events []laneEvent
	evLen  []uint8

	// Energy per (node, lane), indexed [node*MaxLanes + lane] so one
	// node's lanes share cache lines; transposed at the end of the run.
	energy []uint64

	// Outputs and halt rounds in the returned [lane*n + node] layout:
	// allocated per batch by bind and handed to the caller by results.
	outs  []int64
	haltR []uint64

	// Per-node lane masks.
	heard  []uint64 // latest reception, updated only at listener lanes
	txMask []uint64 // lanes transmitting this round (sparse; cleared via txNodes)
	lsMask []uint64 // lanes listening this round (sparse; cleared in receive)

	// Round scheduling: each node with a pending event is queued once, at
	// its list's head round, split like the scalar scheduler into an
	// append-only next-round bucket (ascending id) and a heap for
	// farther-out events.
	heap    eventHeap
	next    []int32
	cur     []int32
	txNodes []int32
	lsNodes []int32

	act LaneActions

	aliveMask  uint64 // lanes still running; dead lanes' queued events are dropped lazily
	laneActive []int32
	laneRounds []uint64
	laneErrs   []error

	// First unary violation per lane this round (valid where errMask set).
	errMask    uint64
	errNode    [MaxLanes]int32
	errPayload [MaxLanes]uint64

	round uint64
}

// RunLockstep simulates len(seeds) lanes of lp on g under cfg. Lane l is
// the trial with seed seeds[l]; at most MaxLanes seeds per call. The
// batch-level error reports setup problems (bad model, too many seeds,
// WakeRound mismatch, unsupported Config fields); per-lane simulation
// errors land in LockstepBatch.Errs.
//
// Supported Config fields: Model, Ctx (cancellation + Pool lookup), Seed
// is ignored (seeds come per lane), MaxRounds, WakeRound (shared by all
// lanes), UnaryOnly. Observer, Tracer, and Faults are scalar-engine
// features — configuring them is an error, not a silent no-op; Perf and
// Shards are ignored (the lockstep coordinator is single-threaded: its
// parallelism is the lanes).
//
// Attach a Pool (WithPool) to reuse the engine's scratch and CSR snapshot
// across batches, exactly like scalar Run.
func RunLockstep(g *graph.Graph, cfg Config, lp LaneProgram, seeds []uint64) (*LockstepBatch, error) {
	if cfg.Model < ModelCD || cfg.Model > ModelBeep {
		return nil, fmt.Errorf("radio: invalid model %v", cfg.Model)
	}
	if len(seeds) > MaxLanes {
		return nil, fmt.Errorf("radio: RunLockstep got %d seeds, max %d lanes", len(seeds), MaxLanes)
	}
	if cfg.Observer != nil || cfg.Tracer != nil {
		return nil, fmt.Errorf("radio: RunLockstep does not support observers; use the scalar engine")
	}
	if !cfg.Faults.IsZero() {
		return nil, fmt.Errorf("radio: RunLockstep does not support fault injection; use the scalar engine")
	}
	n := g.N()
	if cfg.WakeRound != nil && len(cfg.WakeRound) != n {
		return nil, fmt.Errorf("radio: WakeRound has %d entries, graph has %d nodes", len(cfg.WakeRound), n)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}
	if len(seeds) == 0 {
		return &LockstepBatch{Results: []*Result{}, Errs: []error{}, HaltRounds: [][]uint64{}}, nil
	}

	lp.Bind(n, seeds)

	if pool := poolFrom(cfg.Ctx); pool != nil {
		return pool.runLockstep(g, &cfg, lp, len(seeds), maxRounds)
	}
	var ls lockstep
	ls.bind(g, graph.BuildCSR(g), &cfg, len(seeds), maxRounds)
	return ls.run(lp)
}

// runLockstep executes one lockstep batch on the pool's reused scratch and
// CSR cache. Lockstep batches serialize with scalar runs on the pool's
// mutex, like any other pooled run.
func (p *Pool) runLockstep(g *graph.Graph, cfg *Config, lp LaneProgram, lanes int, maxRounds uint64) (*LockstepBatch, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	csr, _ := p.snapshot(g)
	p.lk.bind(g, csr, cfg, lanes, maxRounds)
	return p.lk.run(lp)
}

// bind (re)points the lockstep scheduler at one batch, resizing and
// resetting all scratch. Mirrors sched.bind: the only place per-batch
// state is initialized.
func (ls *lockstep) bind(g *graph.Graph, csr *graph.CSR, cfg *Config, lanes int, maxRounds uint64) {
	n := g.N()
	ls.csr = csr
	ls.model, ls.unaryOnly = cfg.Model, cfg.UnaryOnly
	ls.ctx = cfg.Ctx
	ls.done = nil
	if cfg.Ctx != nil {
		ls.done = cfg.Ctx.Done()
	}
	ls.maxRounds = maxRounds
	ls.lanes = lanes
	ls.n = n
	ls.round = 0
	ls.errMask = 0

	if lanes == MaxLanes {
		ls.aliveMask = ^uint64(0)
	} else {
		ls.aliveMask = 1<<lanes - 1
	}

	grow := n * MaxLanes
	if cap(ls.events) < grow {
		ls.events = make([]laneEvent, grow)
		ls.energy = make([]uint64, grow)
	}
	ls.events = ls.events[:grow]
	ls.energy = ls.energy[:grow]
	clear(ls.energy)
	ls.outs = make([]int64, lanes*n)
	ls.haltR = make([]uint64, lanes*n)

	if cap(ls.heard) < n {
		ls.heard = make([]uint64, n)
		ls.txMask = make([]uint64, n)
		ls.lsMask = make([]uint64, n)
		ls.evLen = make([]uint8, n)
	}
	ls.heard = ls.heard[:n]
	ls.txMask = ls.txMask[:n]
	ls.lsMask = ls.lsMask[:n]
	ls.evLen = ls.evLen[:n]
	clear(ls.heard)
	clear(ls.txMask)
	clear(ls.lsMask)

	ls.heap = ls.heap[:0]
	ls.next = ls.next[:0]
	ls.cur = ls.cur[:0]
	ls.txNodes = ls.txNodes[:0]
	ls.lsNodes = ls.lsNodes[:0]

	if cap(ls.laneActive) < lanes {
		ls.laneActive = make([]int32, MaxLanes)
		ls.laneRounds = make([]uint64, MaxLanes)
		ls.laneErrs = make([]error, MaxLanes)
	}
	ls.laneActive = ls.laneActive[:lanes]
	ls.laneRounds = ls.laneRounds[:lanes]
	ls.laneErrs = ls.laneErrs[:lanes]
	for l := 0; l < lanes; l++ {
		ls.laneActive[l] = int32(n)
		ls.laneRounds[l] = 0
		ls.laneErrs[l] = nil
	}

	// Every list starts as one event holding all lanes; evLen bounds each
	// list, so entries left by the previous batch need no clearing.
	for v := 0; v < n; v++ {
		var wake uint64
		if cfg.WakeRound != nil {
			wake = cfg.WakeRound[v]
		}
		ls.events[v*MaxLanes] = laneEvent{round: wake, lanes: ls.aliveMask}
		ls.evLen[v] = 1
		ls.heap.push(event{round: wake, id: v})
	}
}

// run drives the batch to completion and assembles the per-lane results.
func (ls *lockstep) run(lp LaneProgram) (*LockstepBatch, error) {
	for ls.aliveMask != 0 {
		select {
		case <-ls.done:
			err := fmt.Errorf("%w: %w", ErrAborted, context.Cause(ls.ctx))
			for m := ls.aliveMask; m != 0; m &= m - 1 {
				ls.laneErrs[bits.TrailingZeros64(m)] = err
			}
			ls.aliveMask = 0
		default:
		}
		if ls.aliveMask == 0 {
			break
		}
		r, ok := ls.nextRound()
		if !ok {
			break // defensive: no pending events (all lanes done)
		}
		if r >= ls.maxRounds {
			// Every still-alive lane's own next event is at or past the
			// cap (the global next round is the minimum over lanes), so
			// each fails exactly as its scalar run would.
			err := fmt.Errorf("%w (cap %d)", ErrMaxRounds, ls.maxRounds)
			for m := ls.aliveMask; m != 0; m &= m - 1 {
				ls.laneErrs[bits.TrailingZeros64(m)] = err
			}
			break
		}
		ls.round = r
		ls.stepRound(r, lp)
	}
	return ls.results(), nil
}

// nextRound returns the earliest round with a scheduled event.
func (ls *lockstep) nextRound() (uint64, bool) {
	if len(ls.next) > 0 {
		return ls.round + 1, true
	}
	if len(ls.heap) > 0 {
		return ls.heap.peekRound(), true
	}
	return 0, false
}

// beginRound materializes the due node set for round r by merging the
// next-round bucket with heap events landing on r; both are ascending by
// id, so cur comes out ascending — the order that makes lowest-node-wins
// error semantics match the scalar engine.
func (ls *lockstep) beginRound(r uint64) {
	ls.cur = ls.cur[:0]
	ni := 0
	for len(ls.heap) > 0 && ls.heap.peekRound() == r {
		id := int32(ls.heap.pop().id)
		for ni < len(ls.next) && ls.next[ni] < id {
			ls.cur = append(ls.cur, ls.next[ni])
			ni++
		}
		ls.cur = append(ls.cur, id)
	}
	ls.cur = append(ls.cur, ls.next[ni:]...)
	ls.next = ls.next[:0]
}

// reschedule re-enters node v into the round scheduler at its list's head
// round, first dropping head events whose lanes have all died; a node
// with no live event left retires.
func (ls *lockstep) reschedule(v int32, r uint64) {
	base := int(v) * MaxLanes
	c := int(ls.evLen[v])
	for c > 0 && ls.events[base+c-1].lanes&ls.aliveMask == 0 {
		c--
	}
	ls.evLen[v] = uint8(c)
	if c == 0 {
		return
	}
	if m := ls.events[base+c-1].round; m == r+1 {
		ls.next = append(ls.next, v)
	} else {
		ls.heap.push(event{round: m, id: int(v)})
	}
}

// insert adds lanes to node v's event at round w, creating that event
// in round order if the list has none at w. Every queued round is later
// than the current one, so a next-round event is a push onto the end (or
// a merge with the head); a farther event scans from the head past the
// earlier rounds, which are few.
func (ls *lockstep) insert(v int32, w, lanes uint64) {
	base := int(v) * MaxLanes
	c := int(ls.evLen[v])
	i := c
	for i > 0 && ls.events[base+i-1].round < w {
		i--
	}
	if i > 0 && ls.events[base+i-1].round == w {
		ls.events[base+i-1].lanes |= lanes
		return
	}
	copy(ls.events[base+i+1:base+c+1], ls.events[base+i:base+c])
	ls.events[base+i] = laneEvent{round: w, lanes: lanes}
	ls.evLen[v] = uint8(c + 1)
}

// stepRound advances all lanes one round: step each due node's lane
// program, apply the returned lane actions (unary checks, energy, halts,
// next-event scheduling), kill lanes that errored, then resolve reception
// for all listener lanes by carry-save accumulation.
func (ls *lockstep) stepRound(r uint64, lp LaneProgram) {
	ls.beginRound(r)
	ls.txNodes = ls.txNodes[:0]
	ls.lsNodes = ls.lsNodes[:0]
	ls.errMask = 0
	act := &ls.act

	var finished uint64
	for _, v := range ls.cur {
		// The node was queued at its head round, r: pop the head.
		base := int(v) * MaxLanes
		ls.evLen[v]--
		dueM := ls.events[base+int(ls.evLen[v])].lanes & ls.aliveMask
		if dueM == 0 {
			// Stale event: the lanes that scheduled it died since.
			ls.reschedule(v, r)
			continue
		}

		act.Transmit, act.Listen, act.Halt = 0, 0, 0
		act.HasPayload = false
		lp.Step(int(v), dueM, ls.heard[v], act)

		tx := act.Transmit & dueM
		lsn := act.Listen & dueM &^ tx
		hl := act.Halt & dueM &^ (tx | lsn)
		sl := dueM &^ (tx | lsn | hl)

		if ls.unaryOnly && act.HasPayload && tx != 0 {
			// Record the first (lowest-node) violation per lane; cur is
			// ascending, so first-seen is lowest, like the scalar merge.
			for m := tx &^ ls.errMask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				if act.Payload[l] != 1 {
					ls.errMask |= 1 << l
					ls.errNode[l] = v
					ls.errPayload[l] = act.Payload[l]
				}
			}
		}

		if tx != 0 {
			ls.txMask[v] = tx
			ls.txNodes = append(ls.txNodes, v)
		}
		if lsn != 0 {
			ls.lsMask[v] = lsn
			ls.lsNodes = append(ls.lsNodes, v)
		}
		for m := tx | lsn; m != 0; m &= m - 1 {
			ls.energy[base+bits.TrailingZeros64(m)]++
		}

		// Transmitters, listeners and one-round sleepers (a zero sleep is
		// clamped to one) act next round; longer sleepers are grouped by
		// wake round, one insertion per distinct round.
		soon := tx | lsn
		var far uint64
		for m := sl; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if act.Sleep[l] <= 1 {
				soon |= 1 << l
			} else {
				far |= 1 << l
			}
		}
		for far != 0 {
			k := act.Sleep[bits.TrailingZeros64(far)]
			var group uint64
			for m := far; m != 0; m &= m - 1 {
				if l := bits.TrailingZeros64(m); act.Sleep[l] == k {
					group |= 1 << l
				}
			}
			far &^= group
			ls.insert(v, r+k, group)
		}
		if soon != 0 {
			ls.insert(v, r+1, soon)
		}

		for m := hl; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			i := l*ls.n + int(v)
			ls.outs[i] = act.Output[l]
			// Scalar semantics in an erroring round: halts of nodes below
			// the offender are observed, those at or above are not (their
			// Outputs entry is still set). Ascending order makes "error
			// already recorded" equivalent to "offender id ≤ this node".
			if ls.errMask>>l&1 == 0 {
				ls.haltR[i] = r
				if ls.laneActive[l]--; ls.laneActive[l] == 0 {
					finished |= 1 << l
				}
			}
		}
		ls.reschedule(v, r)
	}

	if ls.errMask != 0 {
		// Killing a lane only clears its alive bit: its events queued at
		// other nodes are filtered out of due masks and dropped when they
		// reach a list's head.
		for m := ls.errMask & ls.aliveMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			ls.laneErrs[l] = fmt.Errorf("%w: node %d sent %#x", ErrNotUnary, ls.errNode[l], ls.errPayload[l])
		}
		ls.aliveMask &^= ls.errMask
	}

	// Per-lane round accounting and reception, mirroring the scalar
	// fastRound: a lane's Rounds advances only in rounds where it had a
	// transmitter or listener, and an erroring lane's final round never
	// counts (the scalar run aborts before the update).
	var activeOr uint64
	for _, v := range ls.txNodes {
		activeOr |= ls.txMask[v]
	}
	for _, v := range ls.lsNodes {
		activeOr |= ls.lsMask[v]
	}
	activeOr &= ls.aliveMask
	if activeOr != 0 {
		ls.receive(r)
		for m := activeOr; m != 0; m &= m - 1 {
			ls.laneRounds[bits.TrailingZeros64(m)] = r + 1
		}
	}
	for _, v := range ls.txNodes {
		ls.txMask[v] = 0
	}
	for _, v := range ls.lsNodes {
		ls.lsMask[v] = 0
	}

	ls.aliveMask &^= finished
}

// receive resolves reception for every listener lane of the round. For
// each listener, the carry-save accumulation of its neighbors' transmit
// masks yields per-lane "at least one" (ones) and "at least two" (twos)
// transmitter indicators in two words, for all 64 lanes at once. The
// heard bit per model: CD and beeping hear any non-silent channel
// (ones); no-CD hears exactly-one transmitter (ones &^ twos) — a
// collision is indistinguishable from silence.
func (ls *lockstep) receive(r uint64) {
	csr, txMask := ls.csr, ls.txMask
	noCD := ls.model == ModelNoCD
	for _, v := range ls.lsNodes {
		L := ls.lsMask[v] & ls.aliveMask
		if L == 0 {
			continue
		}
		var ones, twos uint64
		for _, w := range csr.Neighbors(int(v)) {
			t := txMask[w]
			twos |= ones & t
			ones |= t
		}
		hb := ones
		if noCD {
			hb &^= twos
		}
		ls.heard[v] = ls.heard[v]&^L | hb&L
	}
}

// results assembles one Result per lane. Outputs and halt rounds are
// already in their returned layout; energy is transposed from the
// per-(node, lane) scratch. All lanes share three backing arrays (one per
// field), so a 64-lane batch costs a handful of allocations, not 3×64.
func (ls *lockstep) results() *LockstepBatch {
	n, lanes := ls.n, ls.lanes
	energy := make([]uint64, lanes*n)
	batch := &LockstepBatch{
		Results:    make([]*Result, lanes),
		Errs:       make([]error, lanes),
		HaltRounds: make([][]uint64, lanes),
	}
	for l := 0; l < lanes; l++ {
		lo, hi := l*n, (l+1)*n
		res := &Result{
			Outputs: ls.outs[lo:hi:hi],
			Energy:  energy[lo:hi:hi],
			Rounds:  ls.laneRounds[l],
		}
		for v := 0; v < n; v++ {
			res.Energy[v] = ls.energy[v*MaxLanes+l]
		}
		batch.Results[l] = res
		batch.Errs[l] = ls.laneErrs[l]
		batch.HaltRounds[l] = ls.haltR[lo:hi:hi]
	}
	ls.outs, ls.haltR = nil, nil // the caller owns them now
	return batch
}
