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
// grouped by wake round, one insertion per distinct round.
//
// Determinism contract: lane l of RunLockstep(g, cfg, lp, seeds) produces
// a Result bit-identical to the scalar Run(g, cfg′, program) with
// cfg′.Seed = seeds[l], where program is the scalar twin of lp. The
// lockstep parity tests enforce this per lane across the scalar parity
// matrix (clean, wake staggering, round caps, pooled reruns, ragged lane
// counts). Divergent control flow — faults,
// crash-restart, observers, tracers — is out of scope by design: those
// runs fall back to the scalar engine (see mis.RunMany), keeping this
// loop free of per-lane branching.

// MaxLanes is the lane capacity of one lockstep run: one bit per lane in
// a 64-bit word.
const MaxLanes = 64

// LaneActions is the out-parameter of LaneProgram.Step: the actions of
// one node's due lanes this round. Transmit, Listen, and Halt are lane
// masks; every due lane not claimed by one of them sleeps for its
// Sleep[lane] rounds, which must be ≥ 1: the scalar engine's Sleep(0) is
// a no-op that never reaches the scheduler, so a program always has a
// real next action to give. The engine zeroes each Sleep entry it reads,
// so a due lane the program left without an action reads 0, and the
// batch fails with an error naming the node, the round and the lanes.
// Every transmission is the unary bit 1.
//
// Output[lane] is the program's return value for halting lanes.
type LaneActions struct {
	Transmit uint64
	Listen   uint64
	Halt     uint64

	Sleep  [MaxLanes]uint64
	Output [MaxLanes]int64
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

// LaneFunc receives one lane's outcome from RunLockstep: the lane's index
// in seed order, its Result, and its terminal error, nil for a lane that
// ran to completion. Lane errors match the scalar engine's: ErrMaxRounds
// when the lane's next event would be at or past the round cap,
// ErrAborted (wrapping the context cause) on cancellation; on a lane
// error res carries the partial state at the point the lane died. Per-node
// halt rounds are in res.HaltRound, as in a scalar run.
//
// res and its slices live in the engine's scratch and are rewritten for
// the next lane: they are valid only until LaneFunc returns, so copy what
// you keep. A non-nil return stops the batch, and RunLockstep returns
// that error unchanged.
type LaneFunc func(lane int, res *Result, err error) error

// lockstep is one run's lockstep scheduler state. Like sched, it is
// reusable: a Pool keeps one and rebinds it across batches so all scratch
// stays warm.
type lockstep struct {
	csr       *graph.CSR
	model     Model
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
	// node's lanes share cache lines; deliver transposes one lane at a
	// time into laneEnergy.
	energy     []uint64
	laneEnergy []uint64

	// Outputs and halt rounds in the [lane*n + node] layout that deliver
	// hands over lane by lane, and the Result it hands over them in.
	outs  []int64
	haltR []uint64
	res   Result

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

	aliveMask  uint64 // lanes with a node still running
	laneActive []int32
	laneRounds []uint64
	laneErrs   []error

	round uint64
}

// RunLockstep simulates len(seeds) lanes of lp on g under cfg. Lane l is
// the trial with seed seeds[l]; at most MaxLanes seeds per call. Once the
// batch has run, each is called with every lane's Result and error, in
// lane order, until it returns an error. The returned error reports setup
// problems (bad model, too many seeds, WakeRound mismatch, unsupported
// Config fields) and a lane program that left a due lane without an
// action, both before any call of each, or is the error each returned;
// per-lane simulation errors reach each.
//
// Supported Config fields: Model, Ctx (cancellation + Pool lookup), Seed
// is ignored (seeds come per lane), MaxRounds, WakeRound (shared by all
// lanes), UnaryOnly (it holds by construction: a lane transmits only the
// unary bit). Observer and Faults are scalar-engine features —
// configuring them is an error, not a silent no-op; Perf and Shards are
// ignored (the lockstep coordinator is single-threaded: its parallelism is
// the lanes).
//
// Attach a Pool (WithPool) to reuse the engine's scratch, result buffers
// and CSR snapshot across batches, exactly like scalar Run.
func RunLockstep(g *graph.Graph, cfg Config, lp LaneProgram, seeds []uint64, each LaneFunc) error {
	if cfg.Model < ModelCD || cfg.Model > ModelBeep {
		return fmt.Errorf("radio: invalid model %v", cfg.Model)
	}
	if len(seeds) > MaxLanes {
		return fmt.Errorf("radio: RunLockstep got %d seeds, max %d lanes", len(seeds), MaxLanes)
	}
	if cfg.Observer != nil {
		return fmt.Errorf("radio: RunLockstep does not support observers; use the scalar engine")
	}
	if !cfg.Faults.IsZero() {
		return fmt.Errorf("radio: RunLockstep does not support fault injection; use the scalar engine")
	}
	n := g.N()
	if cfg.WakeRound != nil && len(cfg.WakeRound) != n {
		return fmt.Errorf("radio: WakeRound has %d entries, graph has %d nodes", len(cfg.WakeRound), n)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}
	if len(seeds) == 0 {
		return nil
	}

	lp.Bind(n, seeds)

	if pool := poolFrom(cfg.Ctx); pool != nil {
		return pool.runLockstep(g, &cfg, lp, len(seeds), maxRounds, each)
	}
	var ls lockstep
	ls.bind(g, graph.BuildCSR(g), &cfg, len(seeds), maxRounds)
	return ls.run(lp, each)
}

// runLockstep executes one lockstep batch on the pool's reused scratch and
// CSR cache. The pool lends its lockstep scratch to the batch and takes it
// back afterwards, holding its mutex only for the hand-over, so each never
// runs under the pool's lock and may itself run on the pool; a batch that
// finds the scratch lent out (a nested or concurrent one) runs on fresh
// scratch.
func (p *Pool) runLockstep(g *graph.Graph, cfg *Config, lp LaneProgram, lanes int, maxRounds uint64, each LaneFunc) error {
	p.mu.Lock()
	csr, _ := p.snapshot(g)
	ls := p.lk
	p.lk = nil
	p.mu.Unlock()
	if ls == nil {
		ls = new(lockstep)
	}
	defer func() {
		p.mu.Lock()
		p.lk = ls
		p.mu.Unlock()
	}()
	ls.bind(g, csr, cfg, lanes, maxRounds)
	return ls.run(lp, each)
}

// bind (re)points the lockstep scheduler at one batch, resizing and
// resetting all scratch. Mirrors sched.bind: the only place per-batch
// state is initialized.
func (ls *lockstep) bind(g *graph.Graph, csr *graph.CSR, cfg *Config, lanes int, maxRounds uint64) {
	n := g.N()
	ls.csr = csr
	ls.model = cfg.Model
	ls.ctx = cfg.Ctx
	ls.done = nil
	if cfg.Ctx != nil {
		ls.done = cfg.Ctx.Done()
	}
	ls.maxRounds = maxRounds
	ls.lanes = lanes
	ls.n = n
	ls.round = 0

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
	// A lane that dies early leaves its unhalted nodes at 0, as a fresh
	// scalar run does.
	if cap(ls.outs) < lanes*n {
		ls.outs = make([]int64, lanes*n)
		ls.haltR = make([]uint64, lanes*n)
	}
	ls.outs = ls.outs[:lanes*n]
	ls.haltR = ls.haltR[:lanes*n]
	clear(ls.outs)
	clear(ls.haltR)

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

// unbind drops the references bind and deliver took to one batch,
// keeping the buffers.
func (ls *lockstep) unbind() {
	ls.csr, ls.ctx, ls.done, ls.res = nil, nil, nil, Result{}
}

// run drives the batch to completion and delivers the per-lane results.
func (ls *lockstep) run(lp LaneProgram, each LaneFunc) error {
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
		if err := ls.stepRound(r, lp); err != nil {
			return err
		}
	}
	return ls.deliver(each)
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
// id, so cur comes out ascending, and so does the next-round bucket that
// stepping cur refills.
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
// round; a node with no event left retires.
func (ls *lockstep) reschedule(v int32, r uint64) {
	c := int(ls.evLen[v])
	if c == 0 {
		return
	}
	if m := ls.events[int(v)*MaxLanes+c-1].round; m == r+1 {
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
// program, apply the returned lane actions (energy, halts, next-event
// scheduling), then resolve reception for all listener lanes by
// carry-save accumulation. It fails when the program left a due lane
// without an action.
func (ls *lockstep) stepRound(r uint64, lp LaneProgram) error {
	ls.beginRound(r)
	ls.txNodes = ls.txNodes[:0]
	ls.lsNodes = ls.lsNodes[:0]
	act := &ls.act

	var finished uint64
	for _, v := range ls.cur {
		// The node was queued at its head round, r: pop the head.
		base := int(v) * MaxLanes
		ls.evLen[v]--
		dueM := ls.events[base+int(ls.evLen[v])].lanes

		act.Transmit, act.Listen, act.Halt = 0, 0, 0
		lp.Step(int(v), dueM, ls.heard[v], act)

		tx := act.Transmit & dueM
		lsn := act.Listen & dueM &^ tx
		hl := act.Halt & dueM &^ (tx | lsn)
		sl := dueM &^ (tx | lsn | hl)

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

		// Transmitters, listeners and one-round sleepers act next round;
		// longer sleepers are grouped by wake round, one insertion per
		// distinct round. Each Sleep entry read is zeroed, so a lane the
		// program gave no action reads 0.
		soon := tx | lsn
		var far, none uint64
		for m := sl; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			switch act.Sleep[l] {
			case 0:
				none |= 1 << l
			case 1:
				soon |= 1 << l
				act.Sleep[l] = 0
			default:
				far |= 1 << l
			}
		}
		if none != 0 {
			return noActionError(v, r, none)
		}
		for far != 0 {
			k := act.Sleep[bits.TrailingZeros64(far)]
			var group uint64
			for m := far; m != 0; m &= m - 1 {
				if l := bits.TrailingZeros64(m); act.Sleep[l] == k {
					group |= 1 << l
					act.Sleep[l] = 0
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
			ls.haltR[i] = r
			if ls.laneActive[l]--; ls.laneActive[l] == 0 {
				finished |= 1 << l
			}
		}
		ls.reschedule(v, r)
	}

	// Per-lane round accounting and reception, mirroring the scalar
	// fastRound: a lane's Rounds advances only in rounds where it had a
	// transmitter or listener.
	var activeOr uint64
	for _, v := range ls.txNodes {
		activeOr |= ls.txMask[v]
	}
	for _, v := range ls.lsNodes {
		activeOr |= ls.lsMask[v]
	}
	if activeOr != 0 {
		ls.receive()
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
	return nil
}

// noActionError reports the lanes of node v that the lane program left
// without an action in round r.
func noActionError(v int32, r, lanes uint64) error {
	var ids []int
	for m := lanes; m != 0; m &= m - 1 {
		ids = append(ids, bits.TrailingZeros64(m))
	}
	return fmt.Errorf("radio: lane program left lanes %v of node %d without an action in round %d", ids, v, r)
}

// receive resolves reception for every listener lane of the round. For
// each listener, the carry-save accumulation of its neighbors' transmit
// masks yields per-lane "at least one" (ones) and "at least two" (twos)
// transmitter indicators in two words, for all 64 lanes at once. The
// heard bit per model: CD and beeping hear any non-silent channel
// (ones); no-CD hears exactly-one transmitter (ones &^ twos) — a
// collision is indistinguishable from silence.
func (ls *lockstep) receive() {
	csr, txMask := ls.csr, ls.txMask
	noCD := ls.model == ModelNoCD
	for _, v := range ls.lsNodes {
		L := ls.lsMask[v]
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

// deliver hands each lane's Result to each, in lane order. Outputs and
// halt rounds are handed over in place; energy is transposed from the
// per-(node, lane) scratch into one n-entry buffer that every lane reuses,
// so a batch allocates nothing once the scratch has grown.
func (ls *lockstep) deliver(each LaneFunc) error {
	n := ls.n
	if cap(ls.laneEnergy) < n {
		ls.laneEnergy = make([]uint64, n)
	}
	energy := ls.laneEnergy[:n]
	for l := 0; l < ls.lanes; l++ {
		for v := range energy {
			energy[v] = ls.energy[v*MaxLanes+l]
		}
		lo, hi := l*n, (l+1)*n
		ls.res = Result{
			Outputs:   ls.outs[lo:hi:hi],
			Energy:    energy,
			HaltRound: ls.haltR[lo:hi:hi],
			Rounds:    ls.laneRounds[l],
		}
		if err := each(l, &ls.res, ls.laneErrs[l]); err != nil {
			return err
		}
	}
	return nil
}
