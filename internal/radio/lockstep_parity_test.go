package radio

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

// This file holds the lockstep engine's golden parity tests: every lane
// of RunLockstep must be bit-identical — Result, halt rounds, error — to
// a scalar Run of the lane program's scalar twin at the lane's seed,
// across the scalar parity matrix (graphs, models, wake staggering, unary
// violations, round caps, pooled reruns, ragged lane counts).

// haltRecorder captures scalar Tracer.NodeHalted rounds for comparison
// with LockstepBatch.HaltRounds.
type haltRecorder struct{ rounds []uint64 }

func (h *haltRecorder) RoundDone(uint64, []int, []int) {}
func (h *haltRecorder) NodeHalted(id int, _ int64, _ uint64, round uint64) {
	h.rounds[id] = round
}

// lanePair is a lane program plus its scalar twin; the pair contract is
// that lane l under RunLockstep behaves exactly like the scalar program
// under Run at cfg.Seed = seeds[l].
type lanePair struct {
	scalar Program
	lane   func() LaneProgram
}

// benchLaneState is the per-(node, lane) state of benchLaneProgram.
type benchLaneState struct {
	rng   uint64
	heard int64
	phase uint8
	j     uint8
	st    uint8
}

const (
	benchStBit = iota
	benchStListen
	benchStAfterListen
	benchStHalt
)

// benchLaneProgram is the lane twin of benchProgram (sched_bench_test.go):
// ten phases of eight decay bits (transmit with halving persistence, else
// a one-round sleep), a listening check, and a random inter-phase sleep.
// Randomness replays each lane's rng.ForNode stream by iterating
// SplitMix64 directly: Int63 draw k is output k shifted right one bit,
// and Intn(4) is the power-of-two path (Int63() >> 32) & 3.
type benchLaneProgram struct {
	state []benchLaneState
}

func (p *benchLaneProgram) Bind(n int, seeds []uint64) {
	if cap(p.state) < n*MaxLanes {
		p.state = make([]benchLaneState, n*MaxLanes)
	}
	p.state = p.state[:n*MaxLanes]
	for v := 0; v < n; v++ {
		base := v * MaxLanes
		for l, seed := range seeds {
			p.state[base+l] = benchLaneState{rng: rng.Mix(seed, uint64(v))}
		}
	}
}

func (p *benchLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	base := node * MaxLanes
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		s := &p.state[base+l]
		bit := uint64(1) << l
		switch s.st {
		case benchStBit:
			var out uint64
			s.rng, out = rng.SplitMix64(s.rng)
			if int64(out>>1)&int64(1<<s.j-1) == 0 {
				act.Transmit |= bit
			} else {
				act.Sleep[l] = 1
			}
			s.j++
			if s.j == 8 {
				s.st = benchStListen
			}
		case benchStListen:
			act.Listen |= bit
			s.st = benchStAfterListen
		case benchStAfterListen:
			if heard&bit != 0 {
				s.heard++
			}
			var out uint64
			s.rng, out = rng.SplitMix64(s.rng)
			act.Sleep[l] = ((out >> 33) & 3) + 1
			s.phase++
			s.j = 0
			if s.phase == 10 {
				s.st = benchStHalt
			} else {
				s.st = benchStBit
			}
		case benchStHalt:
			act.Halt |= bit
			act.Output[l] = s.heard
		}
	}
}

// drowsyProgram is the heap-path workload: mostly asleep with random
// multi-round sleeps, sparse due sets, and rounds with no awake node.
// Every draw is Int63-arithmetic so the lane twin replays it exactly.
func drowsyProgram(env *Env) int64 {
	for i := 0; i < 12; i++ {
		env.Sleep(uint64(env.Rand().Int63()&7) + 1)
		if env.Rand().Int63()&1 == 1 {
			env.TransmitBit()
		} else if env.Listen().Kind != Silence {
			env.Sleep(2)
		}
	}
	return int64(env.Energy())
}

type drowsyLaneState struct {
	rng    uint64
	energy int64
	i      uint8
	st     uint8
}

const (
	drowsyStSleep = iota // next action: the leading sleep of iteration i
	drowsyStAct          // next action: transmit or listen
	drowsyStAfterListen
	drowsyStHalt
)

type drowsyLaneProgram struct {
	state []drowsyLaneState
}

func (p *drowsyLaneProgram) Bind(n int, seeds []uint64) {
	if cap(p.state) < n*MaxLanes {
		p.state = make([]drowsyLaneState, n*MaxLanes)
	}
	p.state = p.state[:n*MaxLanes]
	for v := 0; v < n; v++ {
		base := v * MaxLanes
		for l, seed := range seeds {
			p.state[base+l] = drowsyLaneState{rng: rng.Mix(seed, uint64(v))}
		}
	}
}

func (p *drowsyLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	base := node * MaxLanes
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		s := &p.state[base+l]
		bit := uint64(1) << l
	again:
		switch s.st {
		case drowsyStSleep:
			if s.i == 12 {
				s.st = drowsyStHalt
				goto again
			}
			var out uint64
			s.rng, out = rng.SplitMix64(s.rng)
			act.Sleep[l] = (out>>1)&7 + 1
			s.st = drowsyStAct
		case drowsyStAct:
			s.i++
			var out uint64
			s.rng, out = rng.SplitMix64(s.rng)
			if (out>>1)&1 == 1 {
				act.Transmit |= bit
				s.energy++
				s.st = drowsyStSleep
			} else {
				act.Listen |= bit
				s.energy++
				s.st = drowsyStAfterListen
			}
		case drowsyStAfterListen:
			if heard&bit != 0 {
				act.Sleep[l] = 2
				s.st = drowsyStSleep
				break
			}
			s.st = drowsyStSleep
			goto again
		case drowsyStHalt:
			act.Halt |= bit
			act.Output[l] = s.energy
		}
	}
}

// spreadProgram fills the lockstep engine's per-node event lists: each of
// two iterations opens with a sleep of 1–65536 rounds, a length the 64
// lanes of a node almost surely all draw differently, so a node holds up
// to 64 pending rounds at once. One action later the node sleeps out the
// rest of a fixed span, which realigns its lanes (their events merge),
// and eight coin rounds of transmit or listen follow.
func spreadProgram(env *Env) int64 {
	heard := int64(0)
	for i := 0; i < 2; i++ {
		x := uint64(env.Rand().Int63()&0xffff) + 1
		env.Sleep(x)
		if env.Rand().Int63()&1 == 1 {
			env.TransmitBit()
		} else {
			env.Listen()
		}
		env.Sleep(0x10001 - x)
		for j := 0; j < 8; j++ {
			if env.Rand().Int63()&1 == 1 {
				env.TransmitBit()
			} else if env.Listen().Kind != Silence {
				heard++
			}
		}
	}
	return heard
}

type spreadLaneState struct {
	rng   uint64
	x     uint64
	heard int64
	i, j  uint8
	st    uint8
}

const (
	spreadStSleep       = iota // next action: iteration i's long sleep
	spreadStAct                // next action: transmit or listen, reception unused
	spreadStRealign            // next action: sleep out the span
	spreadStCoin               // next action: coin round j
	spreadStAfterListen        // consume a coin round's listen
)

type spreadLaneProgram struct {
	state []spreadLaneState
}

func (p *spreadLaneProgram) Bind(n int, seeds []uint64) {
	if cap(p.state) < n*MaxLanes {
		p.state = make([]spreadLaneState, n*MaxLanes)
	}
	p.state = p.state[:n*MaxLanes]
	for v := 0; v < n; v++ {
		base := v * MaxLanes
		for l, seed := range seeds {
			p.state[base+l] = spreadLaneState{rng: rng.Mix(seed, uint64(v))}
		}
	}
}

func (p *spreadLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	base := node * MaxLanes
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		s := &p.state[base+l]
		bit := uint64(1) << l
		var out uint64
	again:
		switch s.st {
		case spreadStSleep:
			if s.i == 2 {
				act.Halt |= bit
				act.Output[l] = s.heard
				break
			}
			s.rng, out = rng.SplitMix64(s.rng)
			s.x = (out>>1)&0xffff + 1
			act.Sleep[l] = s.x
			s.st = spreadStAct
		case spreadStAct:
			s.rng, out = rng.SplitMix64(s.rng)
			if (out>>1)&1 == 1 {
				act.Transmit |= bit
			} else {
				act.Listen |= bit
			}
			s.st = spreadStRealign
		case spreadStRealign:
			act.Sleep[l] = 0x10001 - s.x
			s.j = 0
			s.st = spreadStCoin
		case spreadStCoin:
			if s.j == 8 {
				s.i++
				s.st = spreadStSleep
				goto again
			}
			s.j++
			s.rng, out = rng.SplitMix64(s.rng)
			if (out>>1)&1 == 1 {
				act.Transmit |= bit
			} else {
				act.Listen |= bit
				s.st = spreadStAfterListen
			}
		case spreadStAfterListen:
			if heard&bit != 0 {
				s.heard++
			}
			s.st = spreadStCoin
			goto again
		}
	}
}

func lockstepPairs() map[string]lanePair {
	return map[string]lanePair{
		"bench":  {scalar: benchProgram, lane: func() LaneProgram { return &benchLaneProgram{} }},
		"drowsy": {scalar: drowsyProgram, lane: func() LaneProgram { return &drowsyLaneProgram{} }},
		"spread": {scalar: spreadProgram, lane: func() LaneProgram { return &spreadLaneProgram{} }},
	}
}

// runBothLockstep executes the pair on the scalar engine (one Run per
// seed, halt rounds recorded via Tracer) and on the lockstep engine (one
// RunLockstep across all seeds), and requires per-lane bit-identity:
// same Result, same per-node halt rounds, same error text. It runs the
// lockstep side both standalone and twice through a Pool (reused scratch
// and CSR cache).
func runBothLockstep(t *testing.T, g *graph.Graph, cfg Config, pair lanePair, seeds []uint64) {
	t.Helper()

	type scalarOut struct {
		res   *Result
		err   error
		halts []uint64
	}
	want := make([]scalarOut, len(seeds))
	for l, seed := range seeds {
		rec := &haltRecorder{rounds: make([]uint64, g.N())}
		c := cfg
		c.Seed = seed
		c.Tracer = rec
		res, err := Run(g, c, pair.scalar)
		want[l] = scalarOut{res: res, err: err, halts: rec.rounds}
	}

	check := func(t *testing.T, label string, batch *LockstepBatch, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: RunLockstep: %v", label, err)
		}
		if len(batch.Results) != len(seeds) {
			t.Fatalf("%s: got %d lane results, want %d", label, len(batch.Results), len(seeds))
		}
		for l := range seeds {
			w := want[l]
			lerr := batch.Errs[l]
			if (lerr == nil) != (w.err == nil) || (lerr != nil && lerr.Error() != w.err.Error()) {
				t.Fatalf("%s: lane %d error = %v, scalar = %v", label, l, lerr, w.err)
			}
			if lerr != nil {
				continue // errored runs leave the Result unspecified
			}
			if !reflect.DeepEqual(batch.Results[l], w.res) {
				t.Fatalf("%s: lane %d Result diverges from scalar\n got: %+v\nwant: %+v", label, l, batch.Results[l], w.res)
			}
			if !reflect.DeepEqual(batch.HaltRounds[l], w.halts) {
				t.Fatalf("%s: lane %d halt rounds diverge\n got: %v\nwant: %v", label, l, batch.HaltRounds[l], w.halts)
			}
		}
	}

	batch, err := RunLockstep(g, cfg, pair.lane(), seeds)
	check(t, "standalone", batch, err)

	pool := NewPool(2)
	defer pool.Close()
	base := cfg.Ctx
	if base == nil {
		base = context.Background()
	}
	for trial := 0; trial < 2; trial++ {
		c := cfg
		c.Ctx = WithPool(base, pool)
		batch, err := RunLockstep(g, c, pair.lane(), seeds)
		check(t, fmt.Sprintf("pool trial=%d", trial), batch, err)
	}
}

func laneSeeds(n int, salt uint64) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Mix(salt, uint64(i))
	}
	return seeds
}

func TestLockstepParityClean(t *testing.T) {
	for gname, g := range parityGraphs(t) {
		for pname, pair := range lockstepPairs() {
			for _, model := range []Model{ModelCD, ModelNoCD, ModelBeep} {
				for _, lanes := range []int{1, 63, 64} {
					name := fmt.Sprintf("%s/%s/%s/lanes=%d", gname, pname, model, lanes)
					t.Run(name, func(t *testing.T) {
						seeds := laneSeeds(lanes, 0x10c0+uint64(len(name)))
						runBothLockstep(t, g, Config{Model: model}, pair, seeds)
					})
				}
			}
		}
	}
}

func TestLockstepParityWakeRound(t *testing.T) {
	g := graph.Cycle(130)
	wakes := make([]uint64, g.N())
	r := rand.New(rand.NewSource(5))
	for i := range wakes {
		wakes[i] = uint64(r.Intn(17))
	}
	for pname, pair := range lockstepPairs() {
		t.Run(pname, func(t *testing.T) {
			runBothLockstep(t, g, Config{Model: ModelCD, WakeRound: wakes}, pair, laneSeeds(64, 3))
		})
	}
}

// unaryLaneProgram (and its scalar twin) violates unary encoding from
// node 41 in the lanes whose first draw is odd, so one batch mixes dying
// lanes (ErrNotUnary, node 41) with lanes that complete — the per-lane
// fallback-free divergence case. Nodes below 41 halt in round 0 and must
// still be observed in dying lanes; nodes above transmit and pay energy.
func unaryScalarProgram(env *Env) int64 {
	if env.ID() == 41 {
		if env.Rand().Int63()&1 == 1 {
			env.Transmit(99)
		} else {
			env.TransmitBit()
		}
		return 7
	}
	if env.ID() < 41 {
		return 1
	}
	env.TransmitBit()
	return 0
}

type unaryLaneProgram struct {
	n     int
	seeds []uint64
	step2 []uint64 // lanes per node that already did their round-0 action
}

func (p *unaryLaneProgram) Bind(n int, seeds []uint64) {
	p.n = n
	p.seeds = seeds
	if cap(p.step2) < n {
		p.step2 = make([]uint64, n)
	}
	p.step2 = p.step2[:n]
	clear(p.step2)
}

func (p *unaryLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	if node < 41 {
		act.Halt = due
		for m := due; m != 0; m &= m - 1 {
			act.Output[bits.TrailingZeros64(m)] = 1
		}
		return
	}
	first := due &^ p.step2[node]
	second := due & p.step2[node]
	p.step2[node] |= due
	act.Transmit = first
	act.Halt = second
	var haltOut int64
	if node == 41 {
		haltOut = 7
	}
	for m := second; m != 0; m &= m - 1 {
		act.Output[bits.TrailingZeros64(m)] = haltOut
	}
	if node == 41 {
		act.HasPayload = true
		for m := first; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			_, out := rng.SplitMix64(rng.Mix(p.seeds[l], uint64(node)))
			if (out>>1)&1 == 1 {
				act.Payload[l] = 99
			} else {
				act.Payload[l] = 1
			}
		}
	}
}

func TestLockstepParityUnaryViolation(t *testing.T) {
	g := graph.Complete(80)
	pair := lanePair{scalar: unaryScalarProgram, lane: func() LaneProgram { return &unaryLaneProgram{} }}
	seeds := laneSeeds(64, 41)
	runBothLockstep(t, g, Config{Model: ModelCD, UnaryOnly: true}, pair, seeds)

	// Sanity: the batch really does mix dying and surviving lanes.
	batch, err := RunLockstep(g, Config{Model: ModelCD, UnaryOnly: true}, &unaryLaneProgram{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	died, lived := 0, 0
	for _, lerr := range batch.Errs {
		if lerr != nil {
			if !errors.Is(lerr, ErrNotUnary) {
				t.Fatalf("lane error = %v, want ErrNotUnary", lerr)
			}
			died++
		} else {
			lived++
		}
	}
	if died == 0 || lived == 0 {
		t.Fatalf("want a mixed batch, got %d dead / %d live lanes", died, lived)
	}
}

// spinScalarProgram makes node 0 listen forever in lanes where its first
// draw is odd and halt after one listen otherwise (other nodes always
// halt after one listen), so a capped batch mixes ErrMaxRounds lanes with
// completed ones.
func spinScalarProgram(env *Env) int64 {
	spin := env.ID() == 0 && env.Rand().Int63()&1 == 1
	env.Listen()
	for spin {
		env.Listen()
	}
	return 5
}

type spinLaneState struct {
	spin    bool
	started bool
	done    bool
}

type spinLaneProgram struct {
	state []spinLaneState
}

func (p *spinLaneProgram) Bind(n int, seeds []uint64) {
	if cap(p.state) < n*MaxLanes {
		p.state = make([]spinLaneState, n*MaxLanes)
	}
	p.state = p.state[:n*MaxLanes]
	for v := 0; v < n; v++ {
		base := v * MaxLanes
		for l, seed := range seeds {
			_, out := rng.SplitMix64(rng.Mix(seed, uint64(v)))
			p.state[base+l] = spinLaneState{spin: v == 0 && (out>>1)&1 == 1}
		}
	}
}

func (p *spinLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	base := node * MaxLanes
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		s := &p.state[base+l]
		bit := uint64(1) << l
		switch {
		case !s.started || s.spin:
			s.started = true
			act.Listen |= bit
		default:
			act.Halt |= bit
			act.Output[l] = 5
		}
	}
}

func TestLockstepParityMaxRounds(t *testing.T) {
	g := graph.Cycle(64)
	pair := lanePair{scalar: spinScalarProgram, lane: func() LaneProgram { return &spinLaneProgram{} }}
	seeds := laneSeeds(64, 77)
	runBothLockstep(t, g, Config{Model: ModelCD, MaxRounds: 50}, pair, seeds)

	batch, err := RunLockstep(g, Config{Model: ModelCD, MaxRounds: 50}, &spinLaneProgram{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	capped := 0
	for _, lerr := range batch.Errs {
		if lerr != nil {
			if !errors.Is(lerr, ErrMaxRounds) {
				t.Fatalf("lane error = %v, want ErrMaxRounds", lerr)
			}
			capped++
		}
	}
	if capped == 0 || capped == len(seeds) {
		t.Fatalf("want a mixed batch, got %d/%d capped lanes", capped, len(seeds))
	}
}

// TestLockstepRagged65 covers the >MaxLanes path a batch caller takes:
// 65 trials split into a 64-lane batch plus a 1-lane batch on the same
// pool, every lane still bit-identical to its scalar run.
func TestLockstepRagged65(t *testing.T) {
	g := graph.GNP(200, 4.0/200, rand.New(rand.NewSource(11)))
	seeds := laneSeeds(65, 9)
	for pname, pair := range lockstepPairs() {
		t.Run(pname, func(t *testing.T) {
			pool := NewPool(2)
			defer pool.Close()
			ctx := WithPool(context.Background(), pool)
			for _, chunk := range [][]uint64{seeds[:64], seeds[64:]} {
				c := Config{Model: ModelCD, Ctx: ctx}
				runBothLockstep(t, g, c, pair, chunk)
			}
		})
	}
}

// eventProbe wraps a lane program and records the longest event list any
// node held: at each Step it reads the list of the node stepped before,
// whose insertions are complete by then.
type eventProbe struct {
	LaneProgram
	ls      *lockstep
	last    int
	longest int
}

func (p *eventProbe) Step(node int, due, heard uint64, act *LaneActions) {
	p.longest = max(p.longest, int(p.ls.evLen[p.last]))
	p.last = node
	p.LaneProgram.Step(node, due, heard, act)
}

// TestLockstepEventListFull checks the premise of the spread pair: on a
// 64-lane batch its lane-distinct sleeps fill a node's event list to
// MaxLanes entries, the list's full capacity.
func TestLockstepEventListFull(t *testing.T) {
	g := graph.Cycle(97)
	cfg := Config{Model: ModelCD}
	seeds := laneSeeds(MaxLanes, 0x5b1d)
	var ls lockstep
	ls.bind(g, graph.BuildCSR(g), &cfg, len(seeds), DefaultMaxRounds)
	probe := &eventProbe{LaneProgram: &spreadLaneProgram{}, ls: &ls}
	probe.Bind(g.N(), seeds)
	if _, err := ls.run(probe); err != nil {
		t.Fatal(err)
	}
	if probe.longest != MaxLanes {
		t.Fatalf("longest event list = %d, want %d", probe.longest, MaxLanes)
	}
}

// starUnaryProgram, run on a star centered on node 0, kills lanes while
// their events are still queued at the leaves. The center's coin decides
// a lane's fate. On even, it transmits a unary bit in round 0 and halts;
// the leaves, listening in round 0, hear it and halt too. On odd, it
// stays silent, sleeps 1–32 rounds and sends a non-unary payload, which
// under UnaryOnly kills the lane at a staggered round; the leaves hear
// silence and sleep 1–64 rounds before a last listen, so the lane dies
// with leaf events queued, and the run ends before the latest are
// reached.
func starUnaryProgram(env *Env) int64 {
	if env.ID() == 0 {
		if env.Rand().Int63()&1 == 0 {
			env.TransmitBit()
			return 1
		}
		env.Sleep(uint64(env.Rand().Int63()&31) + 1)
		env.Transmit(99)
		return 2
	}
	if env.Listen().Kind != Silence {
		return 1
	}
	env.Sleep(uint64(env.Rand().Int63()&63) + 1)
	env.Listen()
	return 2
}

// Stages of starUnaryLaneProgram, in the order a dying lane passes them.
const (
	starStStart   = iota // center: coin; leaf: listen
	starStDecide         // center: send 99; leaf: halt on heard, else sleep
	starStListen         // leaf: last listen
	starStHalt           // halt with output 2
	starStHaltWon        // halt with output 1 (the lane survives)
)

type starUnaryLaneProgram struct {
	rng []uint64
	st  []uint8
}

func (p *starUnaryLaneProgram) Bind(n int, seeds []uint64) {
	p.rng = make([]uint64, n*MaxLanes)
	p.st = make([]uint8, n*MaxLanes)
	for v := 0; v < n; v++ {
		for l, seed := range seeds {
			p.rng[v*MaxLanes+l] = rng.Mix(seed, uint64(v))
		}
	}
}

func (p *starUnaryLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	base := node * MaxLanes
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		bit := uint64(1) << l
		st, r := &p.st[base+l], &p.rng[base+l]
		var out uint64
		switch {
		case *st == starStStart && node == 0:
			act.HasPayload = true
			if *r, out = rng.SplitMix64(*r); (out>>1)&1 == 0 {
				act.Transmit |= bit
				act.Payload[l] = 1
				*st = starStHaltWon
				continue
			}
			*r, out = rng.SplitMix64(*r)
			act.Sleep[l] = (out>>1)&31 + 1
			*st = starStDecide
		case *st == starStStart:
			act.Listen |= bit
			*st = starStDecide
		case *st == starStDecide && node == 0:
			act.HasPayload = true
			act.Transmit |= bit
			act.Payload[l] = 99
			*st = starStHalt
		case *st == starStDecide:
			if heard&bit != 0 {
				act.Halt |= bit
				act.Output[l] = 1
				continue
			}
			*r, out = rng.SplitMix64(*r)
			act.Sleep[l] = (out>>1)&63 + 1
			*st = starStListen
		case *st == starStListen:
			act.Listen |= bit
			*st = starStHalt
		case *st == starStHalt:
			act.Halt |= bit
			act.Output[l] = 2
		case *st == starStHaltWon:
			act.Halt |= bit
			act.Output[l] = 1
		}
	}
}

// TestLockstepDeadLaneEventsDoNotLeak runs a UnaryOnly batch whose lanes
// die with events still queued at other nodes, then a second batch on the
// same Pool: the second must equal a pool-less run, so no event of the
// first batch leaks into it.
func TestLockstepDeadLaneEventsDoNotLeak(t *testing.T) {
	g := graph.Star(40)
	pair := lanePair{scalar: starUnaryProgram, lane: func() LaneProgram { return &starUnaryLaneProgram{} }}
	dying := Config{Model: ModelCD, UnaryOnly: true}
	seeds := laneSeeds(MaxLanes, 0xdead)
	runBothLockstep(t, g, dying, pair, seeds)

	pool := NewPool(1)
	defer pool.Close()
	pooled := func(cfg Config) Config {
		cfg.Ctx = WithPool(context.Background(), pool)
		return cfg
	}
	first, err := RunLockstep(g, pooled(dying), pair.lane(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	died := 0
	for _, lerr := range first.Errs {
		if errors.Is(lerr, ErrNotUnary) {
			died++
		}
	}
	queued := 0
	for _, c := range pool.lk.evLen {
		queued += int(c)
	}
	if died == 0 || died == MaxLanes || queued == 0 {
		t.Fatalf("want a mixed batch that leaves dead lanes' events queued, got %d/%d dead lanes, %d queued events",
			died, MaxLanes, queued)
	}

	// The second batch runs without UnaryOnly, so every lane completes
	// and the whole batch can be compared.
	clean := Config{Model: ModelCD}
	seeds2 := laneSeeds(MaxLanes, 0xbeef)
	want, err := RunLockstep(g, clean, pair.lane(), seeds2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunLockstep(g, pooled(clean), pair.lane(), seeds2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second pooled batch diverges from a pool-less run\n got: %+v\nwant: %+v", got, want)
	}
	runBothLockstep(t, g, clean, pair, seeds2)
}

// clampLaneProgram returns Sleep 0, Sleep 1 and Sleep 5 for lanes l%3 =
// 0, 1, 2 of the same Step, then listens once and halts. It records the
// due mask of each node's second step.
type clampLaneProgram struct {
	steps  []uint8
	second [][]uint64 // per node, the due masks its second steps came in
}

func (p *clampLaneProgram) Bind(n int, seeds []uint64) {
	p.steps = make([]uint8, n*MaxLanes)
	p.second = make([][]uint64, n)
}

func (p *clampLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	var second uint64
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		switch p.steps[node*MaxLanes+l] {
		case 0:
			act.Sleep[l] = [3]uint64{0, 1, 5}[l%3]
		case 1:
			second |= 1 << l
			act.Listen |= 1 << l
		default:
			act.Halt |= 1 << l
		}
		p.steps[node*MaxLanes+l]++
	}
	if second != 0 {
		p.second[node] = append(p.second[node], second)
	}
}

// TestLockstepSleepZeroClamp pins the LaneActions promise that a zero
// sleep is clamped to one: the run finishes, and Sleep-0 lanes are stepped
// in the next round together with the Sleep-1 lanes, in one due mask.
func TestLockstepSleepZeroClamp(t *testing.T) {
	g := graph.Cycle(10)
	lp := &clampLaneProgram{}
	batch, err := RunLockstep(g, Config{Model: ModelCD, MaxRounds: 100}, lp, laneSeeds(MaxLanes, 1))
	if err != nil {
		t.Fatal(err)
	}
	var short, long uint64 // lanes that slept 0 or 1 rounds, and 5 rounds
	for l := 0; l < MaxLanes; l++ {
		if l%3 == 2 {
			long |= 1 << l
		} else {
			short |= 1 << l
		}
	}
	for l := 0; l < MaxLanes; l++ {
		if batch.Errs[l] != nil {
			t.Fatalf("lane %d: %v", l, batch.Errs[l])
		}
		listen := uint64(1) // the round of the lane's listen
		if l%3 == 2 {
			listen = 5
		}
		if got := batch.Results[l].Rounds; got != listen+1 {
			t.Fatalf("lane %d: Rounds = %d, want %d", l, got, listen+1)
		}
		for v, hr := range batch.HaltRounds[l] {
			if hr != listen+1 {
				t.Fatalf("lane %d node %d: halt round = %d, want %d", l, v, hr, listen+1)
			}
		}
	}
	for v, masks := range lp.second {
		if !reflect.DeepEqual(masks, []uint64{short, long}) {
			t.Fatalf("node %d: second-step due masks = %#x, want [%#x %#x]", v, masks, short, long)
		}
	}
}

func TestLockstepCancellation(t *testing.T) {
	g := graph.Cycle(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch, err := RunLockstep(g, Config{Model: ModelCD, Ctx: ctx}, &spinLaneProgram{}, laneSeeds(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	for l, lerr := range batch.Errs {
		if !errors.Is(lerr, ErrAborted) || !errors.Is(lerr, context.Canceled) {
			t.Fatalf("lane %d error = %v, want ErrAborted wrapping context.Canceled", l, lerr)
		}
	}
}

func TestLockstepRejectsScalarOnlyConfig(t *testing.T) {
	g := graph.Cycle(8)
	seeds := laneSeeds(2, 1)
	if _, err := RunLockstep(g, Config{Model: ModelCD, Observer: MultiObserver{}}, &benchLaneProgram{}, seeds); err == nil {
		t.Fatal("observer config should be rejected")
	}
	if _, err := RunLockstep(g, Config{Model: Model(99)}, &benchLaneProgram{}, seeds); err == nil {
		t.Fatal("invalid model should be rejected")
	}
	if _, err := RunLockstep(g, Config{Model: ModelCD}, &benchLaneProgram{}, make([]uint64, 65)); err == nil {
		t.Fatal("more than MaxLanes seeds should be rejected")
	}
}

// TestLockstepPooledSteadyStateAllocs pins the lane path's steady-state
// allocation budget: a warm pooled batch allocates only what it returns
// (the outputs and halt-round arrays bind allocates, the energy array
// results transposes into, and one Result header per lane) — nothing per
// round or per node.
func TestLockstepPooledSteadyStateAllocs(t *testing.T) {
	g := graph.GNP(512, 8.0/512, rand.New(rand.NewSource(7)))
	pool := NewPool(1)
	defer pool.Close()
	ctx := WithPool(context.Background(), pool)
	lp := &benchLaneProgram{}
	seeds := laneSeeds(64, 2)
	cfg := Config{Model: ModelCD, Ctx: ctx}
	if _, err := RunLockstep(g, cfg, lp, seeds); err != nil {
		t.Fatal(err) // warm-up: grows pool scratch and the program's state
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := RunLockstep(g, cfg, lp, seeds); err != nil {
			t.Fatal(err)
		}
	})
	// 64 Result headers + 3 shared backing arrays + 3 batch slices + the
	// batch header ≈ 71; anything near per-round or per-node counts
	// (hundreds+) means the engine started allocating on the hot path.
	if avg > 90 {
		t.Fatalf("steady-state pooled lockstep batch allocates %.0f times, want ≤ 90 (result assembly only)", avg)
	}
}
