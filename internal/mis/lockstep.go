package mis

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// This file is the MIS layer of the bit-parallel lockstep trial engine
// (radio/lockstep.go): lane state machines that are bit-exact twins of the
// registered scalar programs, and RunMany — the batch-trial execution path
// that routes eligible batches through radio.RunLockstep, 64 trials per
// call, and everything else through the scalar engine one trial at a time.
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

// cdLaneState is one (node, lane)'s progress through Algorithm 1: its
// SplitMix64 stream, the current Luby phase and competition bit, and the
// state-machine stage.
type cdLaneState struct {
	rng   uint64
	phase uint16
	bit   uint16
	st    uint8
}

// Stages of the CD lane machine. Each stage either consumes the previous
// round's reception (After*) or emits this round's action; consuming
// stages chain straight into the next emitting stage within one Step call,
// mirroring how the scalar program's control flow reaches its next awake
// action in the round after a listen.
const (
	cdStBit           uint8 = iota // emit bit-j action, or the winner's confirmation
	cdStAfterListen                // consume the bit-j listen
	cdStCheckListen                // emit the loser's checking-round listen
	cdStAfterCheck                 // consume the checking-round listen
	cdStHaltIn                     // confirmation sent last round: halt in the MIS
	cdStHaltUndecided              // zero-phase parameters: halt immediately
)

// cdLaneProgram is the lockstep twin of CDProgram, serving both the cd and
// beep registry entries (the heard-bit semantics differ per model inside
// the engine, exactly as they do for the scalar program).
type cdLaneProgram struct {
	l, b  uint16
	state []cdLaneState
}

func newCDLane(p Params) radio.LaneProgram {
	return &cdLaneProgram{l: uint16(p.LubyPhases()), b: uint16(p.RankBits())}
}

func (cp *cdLaneProgram) Bind(n int, seeds []uint64) {
	if cap(cp.state) < n*radio.MaxLanes {
		cp.state = make([]cdLaneState, n*radio.MaxLanes)
	}
	cp.state = cp.state[:n*radio.MaxLanes]
	st0 := cdStBit
	if cp.l == 0 {
		st0 = cdStHaltUndecided
	}
	for v := 0; v < n; v++ {
		base := v * radio.MaxLanes
		for l, seed := range seeds {
			cp.state[base+l] = cdLaneState{rng: rng.Mix(seed, uint64(v)), st: st0}
		}
	}
}

func (cp *cdLaneProgram) Step(node int, due, heard uint64, act *radio.LaneActions) {
	base := node * radio.MaxLanes
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		lb := uint64(1) << l
		s := &cp.state[base+l]
	step:
		switch s.st {
		case cdStBit:
			if s.bit >= cp.b {
				// Survived every competition bit: confirm inclusion.
				act.Transmit |= lb
				s.st = cdStHaltIn
				continue
			}
			// The coin, without a branch: heads is all ones on heads
			// (transmit, next bit) and zero on tails (listen).
			var out uint64
			s.rng, out = rng.SplitMix64(s.rng)
			heads := -(out >> 1 & 1)
			act.Transmit |= lb & heads
			act.Listen |= lb &^ heads
			s.bit += uint16(heads & 1)
			s.st = cdStAfterListen &^ uint8(heads) // cdStBit is 0
		case cdStAfterListen:
			if heard&lb != 0 {
				// A higher-ranked neighbor is competing: sleep out the
				// phase's remaining bits, then listen in the checking
				// round. Sleep(0) is a no-op in the scalar engine, so a
				// last-bit loss listens again immediately.
				if k := uint64(cp.b - s.bit - 1); k > 0 {
					act.Sleep[l] = k
					s.st = cdStCheckListen
				} else {
					act.Listen |= lb
					s.st = cdStAfterCheck
				}
			} else {
				s.bit++
				s.st = cdStBit
				goto step
			}
		case cdStCheckListen:
			act.Listen |= lb
			s.st = cdStAfterCheck
		case cdStAfterCheck:
			if heard&lb != 0 {
				act.Halt |= lb
				act.Output[l] = int64(StatusOutMIS)
			} else if s.phase++; s.phase >= cp.l {
				act.Halt |= lb
				act.Output[l] = int64(StatusUndecided)
			} else {
				s.bit = 0
				s.st = cdStBit
				goto step
			}
		case cdStHaltIn:
			act.Halt |= lb
			act.Output[l] = int64(StatusInMIS)
		case cdStHaltUndecided:
			act.Halt |= lb
			act.Output[l] = int64(StatusUndecided)
		}
	}
}

// naiveLaneState extends cdLaneState with the naive baseline's contention
// flags: inCont (still competing in this phase) and won.
type naiveLaneState struct {
	rng    uint64
	phase  uint16
	bit    uint16
	st     uint8
	inCont bool
	won    bool
}

const (
	nvStBit           uint8 = iota // emit bit-j action (coin only while in contention)
	nvStAfterListen                // consume the bit-j listen
	nvStAfterCheck                 // consume the checking-round listen
	nvStHaltIn                     // confirmation sent last round: halt in the MIS
	nvStHaltUndecided              // zero-phase parameters: halt immediately
)

// naiveCDLaneProgram is the lockstep twin of NaiveCDProgram. The defining
// difference from the cd twin: a knocked-out node keeps listening through
// the rest of the phase (no sleep), and draws no more coins until the next
// phase.
type naiveCDLaneProgram struct {
	l, b  uint16
	state []naiveLaneState
}

func newNaiveCDLane(p Params) radio.LaneProgram {
	return &naiveCDLaneProgram{l: uint16(p.LubyPhases()), b: uint16(p.RankBits())}
}

func (np *naiveCDLaneProgram) Bind(n int, seeds []uint64) {
	if cap(np.state) < n*radio.MaxLanes {
		np.state = make([]naiveLaneState, n*radio.MaxLanes)
	}
	np.state = np.state[:n*radio.MaxLanes]
	st0 := nvStBit
	if np.l == 0 {
		st0 = nvStHaltUndecided
	}
	for v := 0; v < n; v++ {
		base := v * radio.MaxLanes
		for l, seed := range seeds {
			np.state[base+l] = naiveLaneState{
				rng: rng.Mix(seed, uint64(v)), st: st0, inCont: true, won: true,
			}
		}
	}
}

func (np *naiveCDLaneProgram) Step(node int, due, heard uint64, act *radio.LaneActions) {
	base := node * radio.MaxLanes
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		lb := uint64(1) << l
		s := &np.state[base+l]
	step:
		switch s.st {
		case nvStBit:
			if s.bit >= np.b {
				// Checking round: winners confirm, losers listen.
				if s.won {
					act.Transmit |= lb
					s.st = nvStHaltIn
				} else {
					act.Listen |= lb
					s.st = nvStAfterCheck
				}
				continue
			}
			// The coin, as in the cd twin: heads is all ones on heads
			// (transmit, next bit) and zero on tails or out of contention
			// (listen).
			var heads uint64
			if s.inCont {
				var out uint64
				s.rng, out = rng.SplitMix64(s.rng)
				heads = -(out >> 1 & 1)
			}
			act.Transmit |= lb & heads
			act.Listen |= lb &^ heads
			s.bit += uint16(heads & 1)
			s.st = nvStAfterListen &^ uint8(heads) // nvStBit is 0
		case nvStAfterListen:
			if heard&lb != 0 && s.inCont {
				// Knocked out, but the naive node keeps listening through
				// the rest of the phase instead of sleeping.
				s.inCont = false
				s.won = false
			}
			s.bit++
			s.st = nvStBit
			goto step
		case nvStAfterCheck:
			if heard&lb != 0 {
				act.Halt |= lb
				act.Output[l] = int64(StatusOutMIS)
			} else if s.phase++; s.phase >= np.l {
				act.Halt |= lb
				act.Output[l] = int64(StatusUndecided)
			} else {
				s.bit = 0
				s.inCont, s.won = true, true
				s.st = nvStBit
				goto step
			}
		case nvStHaltIn:
			act.Halt |= lb
			act.Output[l] = int64(StatusInMIS)
		case nvStHaltUndecided:
			act.Halt |= lb
			act.Output[l] = int64(StatusUndecided)
		}
	}
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
// algorithm on g — the canonical multi-trial entry point behind
// radiomis.SolveMany, harness.Repeat, and the daemon's repeat jobs.
// Results are in seed order and each is bit-identical to the single-trial
// Run(name, g, p, RunOpts{Seed: opts.Seeds[i], ...}) result regardless of
// the engine that produced it; on the first failing trial RunMany returns
// that trial's error (lowest index wins, like a sequential loop).
//
// Under EngineAuto a clean (no faults), unobserved batch of a
// LockstepCapable algorithm runs on the bit-parallel lockstep engine in
// chunks of up to radio.MaxLanes trials per engine call; everything else
// runs on the scalar engine one trial at a time. Lockstep batches do not
// emit per-trial engine trace spans (the scalar path's EngineSliceRounds
// sampling); attach a context Pool either way to amortize engine scratch.
func RunMany(name string, g *graph.Graph, p Params, opts ManyOpts) ([]*Result, error) {
	spec, ok := algoSpecs[name]
	if !ok {
		return nil, fmt.Errorf("mis: unknown algorithm %q (known: %s)", name, strings.Join(Algorithms(), ", "))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
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
				return nil, fmt.Errorf("mis: %s has no lockstep lane program; use engine %q", name, EngineScalar)
			case !opts.Faults.IsZero():
				return nil, fmt.Errorf("mis: the lockstep engine does not support fault injection; use engine %q", EngineScalar)
			default:
				return nil, fmt.Errorf("mis: the lockstep engine does not support observers; use engine %q", EngineScalar)
			}
		}
	default:
		return nil, fmt.Errorf("mis: unknown engine %q (known: %s, %s, %s)", opts.Engine, EngineAuto, EngineScalar, EngineLockstep)
	}

	results := make([]*Result, 0, len(opts.Seeds))
	if engine == EngineScalar {
		ro := RunOpts{Ctx: opts.Ctx, Faults: opts.Faults, Observer: opts.Observer}
		for i, seed := range opts.Seeds {
			ro.Seed = seed
			res, err := Run(name, g, p, ro)
			if err != nil {
				return nil, fmt.Errorf("trial %d: %w", i, err)
			}
			results = append(results, res)
		}
		return results, nil
	}

	lp := spec.lane(p)
	for off := 0; off < len(opts.Seeds); off += radio.MaxLanes {
		chunk := opts.Seeds[off:min(off+radio.MaxLanes, len(opts.Seeds))]
		batch, err := radio.RunLockstep(g, radio.Config{Model: spec.model, Ctx: opts.Ctx}, lp, chunk)
		if err != nil {
			return nil, fmt.Errorf("mis: %s run: %w", name, err)
		}
		for l := range chunk {
			if lerr := batch.Errs[l]; lerr != nil {
				return nil, fmt.Errorf("trial %d: mis: %s run: %w", off+l, name, lerr)
			}
			res := newResult(batch.Results[l])
			res.DecisionRound = batch.HaltRounds[l]
			results = append(results, res)
		}
	}
	return results, nil
}
