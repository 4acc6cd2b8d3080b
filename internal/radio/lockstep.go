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
// Lane scheduling never scans lanes either. A round calendar holds
// (node, lane mask) entries: transmitters, listeners and one-round
// sleepers of a node share one entry in the next-round list, and longer
// sleepers are grouped by wake round, one entry per distinct round, in
// that round's bucket. A small min-heap orders the pending rounds, not
// the entries, so an entry costs an append and no bucket is ever sorted.
// A node due in one round through several entries is stepped once: a
// per-node round stamp merges them as the round begins.
//
// Per-lane accounting is node-major or bit-sliced, never a per-lane loop
// per round. Energy is counted in bit planes, one word per bit of the
// count and node: a round's transmit|listen mask is added to the node's
// planes by ripple carry, and deliver expands the planes into per-lane
// counts once per node. Outputs and halt rounds are written at
// [node*MaxLanes + lane], next to the node's other lanes, and deliver
// gathers each lane's entries when it hands the lane over.
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
// freely mutate shared state and must be deterministic. The Step calls
// of one round come in a deterministic order that the contract does not
// fix (today the calendar's insertion order, not ascending node id), so
// a program must not depend on it.
type LaneProgram interface {
	Bind(n int, seeds []uint64)
	Step(node int, due, heard uint64, act *LaneActions)
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

	// The round calendar. next holds the entries due at round+1, in the
	// order the nodes were stepped; every later round with an entry has one
	// bucket, found through bucketOf and ordered by pending, a min-heap of
	// (round, bucket index). A node may have an entry in next and several
	// in the bucket of one round; stamps merges them into one cur entry
	// per node, so Step runs once per (node, round).
	next     []laneEntry
	cur      []laneEntry
	pending  eventHeap // id is the bucket index; rounds are distinct
	buckets  [][]laneEntry
	bucketOf map[uint64]int32
	free     []int32 // bucket indices not holding a pending round
	stamps   []roundStamp

	// Energy per (node, lane), bit-sliced: planes[k*n+v] holds bit k of
	// the count of every lane of node v, bits.Len64(maxRounds) words per
	// node. A lane spends at most one unit per round below maxRounds, so
	// the count never overflows them. Plane-major order keeps the low
	// planes, which nearly every add touches, dense.
	planes []uint64

	// Energy, outputs and halt rounds per (node, lane), indexed
	// [node*MaxLanes + lane] so one node's lanes share cache lines: halts
	// write here, and deliver expands the planes here once per node, then
	// gathers each lane into the n-entry lane buffers it hands over.
	energy     []uint64
	outs       []int64
	haltR      []uint64
	laneEnergy []uint64
	laneOuts   []int64
	laneHalts  []uint64
	res        Result

	// Per-node lane masks.
	heard  []uint64 // latest reception, updated only at listener lanes
	txMask []uint64 // lanes transmitting this round (sparse; cleared via txNodes)
	lsMask []uint64 // lanes listening this round (sparse; cleared in receive)

	txNodes []int32
	lsNodes []int32

	act LaneActions

	aliveMask  uint64 // lanes with a node still running
	laneActive []int32
	laneRounds []uint64
	laneErrs   []error

	round uint64
}

// laneEntry is one calendar entry: lanes of node that act at the entry's
// round.
type laneEntry struct {
	node  int32
	lanes uint64
}

// roundStamp marks the node's entry in cur: round+1 of the round it was
// merged in (0 never matches), and its index.
type roundStamp struct {
	round uint64
	at    int32
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

	ls.planes = resize(ls.planes, n*bits.Len64(maxRounds))
	clear(ls.planes)
	ls.energy = resize(ls.energy, n*MaxLanes)
	// A lane that dies early leaves its unhalted nodes at 0, as a fresh
	// scalar run does.
	ls.outs = resize(ls.outs, n*MaxLanes)
	ls.haltR = resize(ls.haltR, n*MaxLanes)
	clear(ls.outs)
	clear(ls.haltR)

	ls.heard = resize(ls.heard, n)
	ls.txMask = resize(ls.txMask, n)
	ls.lsMask = resize(ls.lsMask, n)
	ls.stamps = resize(ls.stamps, n)
	clear(ls.heard)
	clear(ls.txMask)
	clear(ls.lsMask)
	clear(ls.stamps)

	ls.next = ls.next[:0]
	ls.cur = ls.cur[:0]
	ls.txNodes = ls.txNodes[:0]
	ls.lsNodes = ls.lsNodes[:0]
	// A batch that failed or hit the cap leaves rounds pending.
	ls.pending = ls.pending[:0]
	ls.free = ls.free[:0]
	for b := len(ls.buckets) - 1; b >= 0; b-- {
		ls.buckets[b] = ls.buckets[b][:0]
		ls.free = append(ls.free, int32(b))
	}
	if ls.bucketOf == nil {
		ls.bucketOf = make(map[uint64]int32)
	}
	clear(ls.bucketOf)

	ls.laneActive = resize(ls.laneActive, lanes)
	ls.laneRounds = resize(ls.laneRounds, lanes)
	ls.laneErrs = resize(ls.laneErrs, lanes)
	for l := 0; l < lanes; l++ {
		ls.laneActive[l] = int32(n)
		ls.laneRounds[l] = 0
		ls.laneErrs[l] = nil
	}

	// Every node starts with all lanes due at its wake round.
	for v := 0; v < n; v++ {
		var wake uint64
		if cfg.WakeRound != nil {
			wake = cfg.WakeRound[v]
		}
		ls.schedule(int32(v), wake, ls.aliveMask)
	}
}

// resize returns s with length n, reallocated only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	if len(ls.pending) > 0 {
		return ls.pending.peekRound(), true
	}
	return 0, false
}

// schedule adds lanes of node v to the bucket of round w, a round past
// the next one (or a wake round), opening the bucket if w has none.
func (ls *lockstep) schedule(v int32, w, lanes uint64) {
	b, ok := ls.bucketOf[w]
	if !ok {
		if k := len(ls.free); k > 0 {
			b = ls.free[k-1]
			ls.free = ls.free[:k-1]
		} else {
			b = int32(len(ls.buckets))
			ls.buckets = append(ls.buckets, nil)
		}
		ls.bucketOf[w] = b
		ls.pending.push(event{round: w, id: int(b)})
	}
	ls.buckets[b] = append(ls.buckets[b], laneEntry{node: v, lanes: lanes})
}

// beginRound makes cur the due entries of round r: the next-round list,
// plus r's bucket if one is pending, each node's entries merged into one.
// Neither is sorted: cur keeps insertion order.
func (ls *lockstep) beginRound(r uint64) {
	ls.cur, ls.next = ls.next, ls.cur[:0]
	if len(ls.pending) == 0 || ls.pending.peekRound() != r {
		return
	}
	b := int32(ls.pending.pop().id)
	delete(ls.bucketOf, r)
	stamp := r + 1
	for i, e := range ls.cur {
		ls.stamps[e.node] = roundStamp{round: stamp, at: int32(i)}
	}
	for _, e := range ls.buckets[b] {
		if s := &ls.stamps[e.node]; s.round == stamp {
			ls.cur[s.at].lanes |= e.lanes
		} else {
			*s = roundStamp{round: stamp, at: int32(len(ls.cur))}
			ls.cur = append(ls.cur, e)
		}
	}
	ls.buckets[b] = ls.buckets[b][:0]
	ls.free = append(ls.free, b)
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
	n := ls.n

	var finished uint64
	for _, e := range ls.cur {
		v, dueM := e.node, e.lanes
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
		// One unit of energy for every awake lane: a ripple-carry add of
		// the mask into the node's planes.
		for i, c := int(v), tx|lsn; c != 0; i += n {
			p := ls.planes[i]
			ls.planes[i] = p ^ c
			c &= p
		}

		// Transmitters, listeners and one-round sleepers act next round;
		// longer sleepers are grouped by wake round, one calendar entry
		// per distinct round. Each Sleep entry read is zeroed, so a lane
		// the program gave no action reads 0.
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
			ls.schedule(v, r+k, group)
		}
		if soon != 0 {
			ls.next = append(ls.next, laneEntry{node: v, lanes: soon})
		}

		base := int(v) * MaxLanes
		for m := hl; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			ls.outs[base+l] = act.Output[l]
			ls.haltR[base+l] = r
			if ls.laneActive[l]--; ls.laneActive[l] == 0 {
				finished |= 1 << l
			}
		}
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

// deliver hands each lane's Result to each, in lane order. It expands
// the energy planes once per node into the per-(node, lane) energy, then
// gathers each lane's energy, outputs and halt rounds into n-entry
// buffers that every lane reuses, so a batch allocates nothing once the
// scratch has grown.
func (ls *lockstep) deliver(each LaneFunc) error {
	n := ls.n
	// A lane spends energy only in rounds it counts, so no count needs
	// more bits than the longest lane's Rounds: the planes above are zero.
	var longest uint64
	for _, r := range ls.laneRounds {
		longest = max(longest, r)
	}
	top := bits.Len64(longest)
	for v := 0; v < n; v++ {
		var e [MaxLanes]uint64
		for k := 0; k < top; k++ {
			for p := ls.planes[k*n+v]; p != 0; p &= p - 1 {
				e[bits.TrailingZeros64(p)] += 1 << k
			}
		}
		*(*[MaxLanes]uint64)(ls.energy[v*MaxLanes:]) = e
	}
	ls.laneEnergy = resize(ls.laneEnergy, n)
	ls.laneOuts = resize(ls.laneOuts, n)
	ls.laneHalts = resize(ls.laneHalts, n)
	energy, outs, halts := ls.laneEnergy, ls.laneOuts, ls.laneHalts
	for l := 0; l < ls.lanes; l++ {
		for v := range energy {
			i := v*MaxLanes + l
			energy[v] = ls.energy[i]
			outs[v] = ls.outs[i]
			halts[v] = ls.haltR[i]
		}
		ls.res = Result{
			Outputs:   outs,
			Energy:    energy,
			HaltRound: halts,
			Rounds:    ls.laneRounds[l],
		}
		if err := each(l, &ls.res, ls.laneErrs[l]); err != nil {
			return err
		}
	}
	return nil
}
