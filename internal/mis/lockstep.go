package mis

import (
	"context"
	"fmt"
	"math/bits"
	"strings"
	"sync"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// This file is the MIS layer of the bit-parallel lockstep trial engine
// (radio/lockstep.go): lane programs that are bit-exact twins of the
// registered scalar programs, and RunMany — the batch-trial execution path
// that routes eligible batches through radio.RunLockstep, 64 trials per
// call, and everything else through the scalar engine one trial at a time.
//
// A twin keeps, per node, one lane mask per stage of its program: a live
// lane sits in exactly one stage mask, and Step moves all of the node's
// due lanes between stages with mask algebra. The scalar program's loop
// counters, phase i and bit j, are kept once per node too: in both
// programs every phase takes B+1 rounds in every lane (a losing cd lane
// sleeps exactly to the checking round), and the lanes of a node wake in
// the same round, so all live lanes of a node share i and j. Lanes are
// visited one at a time only for work that is per lane: the coin, a
// loser's Sleep entry, and the Output of a halting lane.
//
// A lane twin replays the scalar program's randomness stream directly: the
// scalar engine hands node v the stream rng.ForNode(seed, v), which is
// SplitMix64 seeded with rng.Mix(seed, v), so a lane keeps one uint64 of
// SplitMix64 state per (node, lane) and steps it exactly where the scalar
// program calls env.Rand(). rng.Bool consumes one Int63, whose low bit is
// bit 1 of the raw SplitMix64 output — hence the out>>1&1 coin below.

// Engine names accepted by ManyOpts.Engine (and the daemon's "engine" job
// field). EngineAuto — the empty string's alias — picks the lockstep
// engine whenever the batch is eligible and falls back to scalar
// otherwise; the explicit names force one engine, with EngineLockstep
// failing loudly when the batch cannot run on it.
const (
	EngineAuto     = "auto"
	EngineScalar   = "scalar"
	EngineLockstep = "lockstep"
)

// laneProgram is a lane twin whose Params are set per batch, so one twin
// and its scratch can serve RunMany calls with different Params.
type laneProgram interface {
	radio.LaneProgram
	setParams(p Params)
}

// laneRun is what a RunMany call on the lockstep engine reuses from the
// previous one: a lane twin to rebind, and the Result that every trial is
// handed over in.
type laneRun struct {
	lp  laneProgram
	res Result
}

// laneCache caches one algorithm's laneRuns across RunMany calls, one per
// concurrent caller. Like radio's pool cache it is a sync.Pool, so the GC
// can drop the scratch of a twin that a large batch grew.
type laneCache struct {
	sync.Pool
}

func newLaneCache(build func() laneProgram) *laneCache {
	c := &laneCache{}
	c.New = func() any { return &laneRun{lp: build()} }
	return c
}

func (c *laneCache) get(p Params) *laneRun {
	run := c.Get().(*laneRun)
	run.lp.setParams(p)
	return run
}

// put returns run to the cache. Its Result keeps only its own Status and
// InMIS storage, not the engine buffers the last trial was handed over in.
func (c *laneCache) put(run *laneRun) {
	run.res = Result{Status: run.res.Status, InMIS: run.res.InMIS}
	c.Put(run)
}

// laneTwin is the part both twins share: L and B, and one SplitMix64
// stream per lane, indexed [node*radio.MaxLanes + lane].
type laneTwin struct {
	l, b uint64
	rngs []uint64
}

func (lt *laneTwin) setParams(p Params) {
	lt.l, lt.b = uint64(p.LubyPhases()), uint64(p.RankBits())
}

// bind seeds lane l of every node v with rng.Mix(seeds[l], v) and returns
// the mask of the bound lanes.
func (lt *laneTwin) bind(n int, seeds []uint64) uint64 {
	if cap(lt.rngs) < n*radio.MaxLanes {
		lt.rngs = make([]uint64, n*radio.MaxLanes)
	}
	lt.rngs = lt.rngs[:n*radio.MaxLanes]
	for v := 0; v < n; v++ {
		base := v * radio.MaxLanes
		for l, seed := range seeds {
			lt.rngs[base+l] = rng.Mix(seed, uint64(v))
		}
	}
	return ^uint64(0) >> (radio.MaxLanes - len(seeds))
}

// coins draws one coin for each lane of m at node v, without a branch on
// its outcome, and returns the lanes that came up heads.
func (lt *laneTwin) coins(v int, m uint64) (heads uint64) {
	rs := (*[radio.MaxLanes]uint64)(lt.rngs[v*radio.MaxLanes:])
	for ; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		var out uint64
		rs[l], out = rng.SplitMix64(rs[l])
		heads |= (out >> 1 & 1) << l
	}
	return heads
}

// laneClock is a node's place in the scalar program's two loops, shared
// by all of its live lanes: phase i, and the bit j of the node's next bit
// round. j advances once per bit round in which the node has a lane that
// competes or listens (a knocked-out naive-cd lane listens without a
// coin); a lane reads it only in the round after it acted, and a node
// with an acting lane is stepped every round, so j is never stale when
// read.
type laneClock struct {
	i, j uint64
}

// endPhase ends the phase of lanes m, whose checking-round listen was
// silent: once L phases are spent they halt StatusUndecided, otherwise
// they are returned to start the next phase at bit 0.
func (c *laneClock) endPhase(m, l uint64, act *radio.LaneActions) uint64 {
	if m == 0 {
		return 0
	}
	if c.i++; c.i >= l {
		halt(act, m, StatusUndecided)
		return 0
	}
	c.j = 0
	return m
}

// halt halts lanes m with output st.
func halt(act *radio.LaneActions, m uint64, st Status) {
	act.Halt |= m
	for ; m != 0; m &= m - 1 {
		act.Output[bits.TrailingZeros64(m)] = int64(st)
	}
}

// cdNode is one node's state in the cd twin: its clock and its stage
// masks. Each stage either consumes the previous round's reception
// (after, acheck) or emits this round's action; consuming stages chain
// straight into the next emitting stage within one Step, mirroring how
// the scalar program's control flow reaches its next awake action in the
// round after a listen.
type cdNode struct {
	laneClock
	bit    uint64 // emit bit j's action, or the winner's confirmation
	after  uint64 // consume the bit-j listen
	check  uint64 // emit the loser's checking-round listen, after its sleep
	acheck uint64 // consume the checking-round listen
	haltIn uint64 // confirmation sent last round: halt in the MIS
}

// cdLaneProgram is the lockstep twin of CDProgram, serving both the cd and
// beep registry entries (the heard-bit semantics differ per model inside
// the engine, exactly as they do for the scalar program).
type cdLaneProgram struct {
	laneTwin
	nodes []cdNode
}

func newCDLane() laneProgram { return &cdLaneProgram{} }

func (cp *cdLaneProgram) Bind(n int, seeds []uint64) {
	all := cp.bind(n, seeds)
	if cap(cp.nodes) < n {
		cp.nodes = make([]cdNode, n)
	}
	cp.nodes = cp.nodes[:n]
	for v := range cp.nodes {
		cp.nodes[v] = cdNode{bit: all}
	}
}

func (cp *cdLaneProgram) Step(node int, due, heard uint64, act *radio.LaneActions) {
	nd := &cp.nodes[node]

	halt(act, due&nd.haltIn, StatusInMIS)
	// A heard checking round means a neighbor joined the MIS.
	acheck := due & nd.acheck
	halt(act, acheck&heard, StatusOutMIS)
	coin := due&nd.bit | due&nd.after&^heard | nd.endPhase(acheck&^heard, cp.l, act)

	// A heard listen at bit j−1 means a higher-ranked neighbor is
	// competing: sleep out the phase's remaining B−j bits, then listen in
	// the checking round. Sleep(0) is a no-op in the scalar engine, so a
	// last-bit loss listens again at once.
	var sleep, check uint64
	if lost := due & nd.after & heard; lost != 0 {
		if k := cp.b - nd.j; k > 0 {
			sleep = lost
			for m := lost; m != 0; m &= m - 1 {
				act.Sleep[bits.TrailingZeros64(m)] = k
			}
		} else {
			check = lost
		}
	}
	check |= due & nd.check

	// Past the last bit, the lanes still competing survived every bit and
	// confirm their inclusion; before it, each draws its coin.
	var heads, confirm uint64
	if nd.j >= cp.b {
		confirm = coin
	} else if coin != 0 {
		heads = cp.coins(node, coin)
		nd.j++
	}
	tails := coin &^ heads &^ confirm
	act.Transmit |= heads | confirm
	act.Listen |= tails | check

	nd.bit = nd.bit&^due | heads
	nd.after = nd.after&^due | tails
	nd.check = nd.check&^due | sleep
	nd.acheck = nd.acheck&^due | check
	nd.haltIn = nd.haltIn&^due | confirm
}

// naiveNode is one node's state in the naive-cd twin: its clock, its
// stage masks, and lost: the lanes knocked out this phase, which may sit
// in bit or after. The scalar program's won flag always equals its
// inContention flag, so lost stands for both.
type naiveNode struct {
	laneClock
	bit    uint64 // emit bit j's action, or the checking-round action
	after  uint64 // consume the bit-j listen
	acheck uint64 // consume the checking-round listen
	haltIn uint64 // confirmation sent last round: halt in the MIS
	lost   uint64 // knocked out this phase
}

// naiveCDLaneProgram is the lockstep twin of NaiveCDProgram. The defining
// difference from the cd twin: a knocked-out node keeps listening through
// the rest of the phase (no sleep), and draws no more coins until the next
// phase.
type naiveCDLaneProgram struct {
	laneTwin
	nodes []naiveNode
}

func newNaiveCDLane() laneProgram { return &naiveCDLaneProgram{} }

func (np *naiveCDLaneProgram) Bind(n int, seeds []uint64) {
	all := np.bind(n, seeds)
	if cap(np.nodes) < n {
		np.nodes = make([]naiveNode, n)
	}
	np.nodes = np.nodes[:n]
	for v := range np.nodes {
		np.nodes[v] = naiveNode{bit: all}
	}
}

func (np *naiveCDLaneProgram) Step(node int, due, heard uint64, act *radio.LaneActions) {
	nd := &np.nodes[node]

	halt(act, due&nd.haltIn, StatusInMIS)
	acheck := due & nd.acheck
	halt(act, acheck&heard, StatusOutMIS)
	// A heard bit-j listen knocks a contender out for the rest of the
	// phase; a new phase puts every lane back in contention.
	after := due & nd.after
	nd.lost = (nd.lost | after&heard) &^ acheck
	emit := due&nd.bit | after | nd.endPhase(acheck&^heard, np.l, act)

	// Past the last bit comes the checking round: a contender confirms, a
	// knocked-out lane listens. Before it, contenders draw a coin and
	// knocked-out lanes listen without one.
	var heads, confirm, check uint64
	if nd.j >= np.b {
		confirm = emit &^ nd.lost
		check = emit & nd.lost
	} else if emit != 0 {
		heads = np.coins(node, emit&^nd.lost)
		nd.j++
	}
	tails := emit &^ heads &^ confirm &^ check
	act.Transmit |= heads | confirm
	act.Listen |= tails | check

	nd.bit = nd.bit&^due | heads
	nd.after = nd.after&^due | tails
	nd.acheck = nd.acheck&^due | check
	nd.haltIn = nd.haltIn&^due | confirm
}

// LockstepCapable reports whether the named algorithm has a lockstep lane
// program — i.e. whether a clean, unobserved RunMany batch of it runs on
// the bit-parallel engine under EngineAuto.
func LockstepCapable(name string) bool {
	spec, ok := algoSpecs[name]
	return ok && spec.lane != nil
}

// ManyOpts carries the knobs of a RunMany call: one trial per seed, plus
// the same execution knobs as RunOpts and an engine selector.
type ManyOpts struct {
	// Seeds holds one trial seed per requested trial, in result order.
	Seeds []uint64
	// Ctx, Faults, Observer have RunOpts semantics, applied to every trial.
	Ctx      context.Context
	Faults   faults.Profile
	Observer radio.Observer
	// Engine selects the execution engine: EngineAuto (or "") picks
	// lockstep for eligible batches and scalar otherwise; EngineScalar
	// forces the per-trial scalar engine; EngineLockstep demands the
	// bit-parallel engine and errors when the batch is ineligible (no lane
	// program, fault injection, or an observer).
	Engine string
}

// RunMany executes len(opts.Seeds) independent trials of the named
// algorithm on g — the multi-trial entry point behind radiomis.SolveMany.
// Results are in seed order and each is bit-identical to the single-trial
// Run(name, g, p, RunOpts{Seed: opts.Seeds[i], ...}) result regardless of
// the engine that produced it; on the first failing trial RunMany returns
// that trial's error (lowest index wins, like a sequential loop). It is
// RunManyFunc with a callback that copies every Result out.
func RunMany(name string, g *graph.Graph, p Params, opts ManyOpts) ([]*Result, error) {
	results := make([]*Result, 0, len(opts.Seeds))
	err := RunManyFunc(name, g, p, opts, func(_ int, res *Result) error {
		results = append(results, res.clone())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunManyFunc runs the trials RunMany runs and hands each trial's Result
// to fn, with the trial's index, in seed order, until a trial fails or fn
// returns an error. It returns the failing trial's error, attributed as
// RunMany's is, or fn's error unchanged. The radiomisd solve path reduces
// each trial to its metric row inside fn.
//
// res is valid only until fn returns: on the lockstep engine every trial
// is handed over in one reused Result whose Energy and DecisionRound are
// the engine's buffers, so copy what you keep.
//
// Under EngineAuto a clean (no faults), unobserved batch of a
// LockstepCapable algorithm runs on the bit-parallel lockstep engine in
// chunks of up to radio.MaxLanes trials per engine call; everything else
// runs on the scalar engine one trial at a time. The lane twin comes from
// a per-algorithm cache and is rebound rather than rebuilt. Lockstep
// batches do not emit per-trial engine trace spans (the scalar path's
// EngineSliceRounds sampling); attach a context Pool either way to reuse
// engine scratch.
func RunManyFunc(name string, g *graph.Graph, p Params, opts ManyOpts, fn func(trial int, res *Result) error) error {
	spec, ok := algoSpecs[name]
	if !ok {
		return fmt.Errorf("mis: unknown algorithm %q (known: %s)", name, strings.Join(Algorithms(), ", "))
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if err := opts.Faults.Validate(); err != nil {
		return err
	}
	lockstepOK := spec.lane != nil && opts.Faults.IsZero() && opts.Observer == nil
	engine := opts.Engine
	switch engine {
	case "", EngineAuto:
		engine = EngineScalar
		if lockstepOK {
			engine = EngineLockstep
		}
	case EngineScalar:
	case EngineLockstep:
		if !lockstepOK {
			switch {
			case spec.lane == nil:
				return fmt.Errorf("mis: %s has no lockstep lane program; use engine %q", name, EngineScalar)
			case !opts.Faults.IsZero():
				return fmt.Errorf("mis: the lockstep engine does not support fault injection; use engine %q", EngineScalar)
			default:
				return fmt.Errorf("mis: the lockstep engine does not support observers; use engine %q", EngineScalar)
			}
		}
	default:
		return fmt.Errorf("mis: unknown engine %q (known: %s, %s, %s)", opts.Engine, EngineAuto, EngineScalar, EngineLockstep)
	}

	if engine == EngineScalar {
		ro := RunOpts{Ctx: opts.Ctx, Faults: opts.Faults, Observer: opts.Observer}
		for i, seed := range opts.Seeds {
			ro.Seed = seed
			res, err := Run(name, g, p, ro)
			if err != nil {
				return fmt.Errorf("trial %d: %w", i, err)
			}
			if err := fn(i, res); err != nil {
				return err
			}
		}
		return nil
	}

	run := spec.lane.get(p)
	defer spec.lane.put(run)
	cfg := radio.Config{Model: spec.model, Ctx: opts.Ctx}
	for off := 0; off < len(opts.Seeds); off += radio.MaxLanes {
		chunk := opts.Seeds[off:min(off+radio.MaxLanes, len(opts.Seeds))]
		// stopped tells an error the callback returned, already
		// attributed, from an engine error.
		stopped := false
		err := radio.RunLockstep(g, cfg, run.lp, chunk, func(l int, rr *radio.Result, lerr error) error {
			stopped = true
			if lerr != nil {
				return fmt.Errorf("trial %d: mis: %s run: %w", off+l, name, lerr)
			}
			run.res.fill(rr)
			if err := fn(off+l, &run.res); err != nil {
				return err
			}
			stopped = false
			return nil
		})
		if err != nil {
			if stopped {
				return err
			}
			return fmt.Errorf("mis: %s run: %w", name, err)
		}
	}
	return nil
}
