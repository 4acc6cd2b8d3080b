package radio

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

// This file holds the lockstep engine's golden parity tests: every lane
// of RunLockstep must be bit-identical — Result (halt rounds included),
// error — to a scalar Run of the lane program's scalar twin at the lane's
// seed, across the scalar parity matrix (graphs, models, wake staggering,
// round caps, pooled reruns, ragged lane counts).

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
// seed, halts recorded by an observer) and on the lockstep engine (one
// RunLockstep across all seeds), and requires per-lane bit-identity:
// same Result, per-node halt rounds equal to the scalar observer's, same
// error text. It runs the lockstep side both standalone and twice through
// a Pool (reused scratch and CSR cache).
func runBothLockstep(t *testing.T, g *graph.Graph, cfg Config, pair lanePair, seeds []uint64) {
	t.Helper()

	type scalarOut struct {
		res   *Result
		err   error
		halts []uint64
	}
	want := make([]scalarOut, len(seeds))
	for l, seed := range seeds {
		rec := &recordingObserver{}
		c := cfg
		c.Seed = seed
		c.Observer = rec
		res, err := Run(g, c, pair.scalar)
		halts := make([]uint64, g.N())
		for id, r := range rec.halts {
			halts[id] = r
		}
		want[l] = scalarOut{res: res, err: err, halts: halts}
	}

	check := func(t *testing.T, label string, results []*Result, errs []error, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: RunLockstep: %v", label, err)
		}
		for l := range seeds {
			w := want[l]
			lerr := errs[l]
			if (lerr == nil) != (w.err == nil) || (lerr != nil && lerr.Error() != w.err.Error()) {
				t.Fatalf("%s: lane %d error = %v, scalar = %v", label, l, lerr, w.err)
			}
			if lerr != nil {
				continue // errored runs leave the Result unspecified
			}
			if !reflect.DeepEqual(results[l], w.res) {
				t.Fatalf("%s: lane %d Result diverges from scalar\n got: %+v\nwant: %+v", label, l, results[l], w.res)
			}
			if !reflect.DeepEqual(results[l].HaltRound, w.halts) {
				t.Fatalf("%s: lane %d halt rounds diverge from the scalar observer's\n got: %v\nwant: %v", label, l, results[l].HaltRound, w.halts)
			}
		}
	}

	results, errs, err := collectLockstep(g, cfg, pair.lane(), seeds)
	check(t, "standalone", results, errs, err)

	pool := NewPool(2)
	defer pool.Close()
	base := cfg.Ctx
	if base == nil {
		base = context.Background()
	}
	for trial := 0; trial < 2; trial++ {
		c := cfg
		c.Ctx = WithPool(base, pool)
		results, errs, err := collectLockstep(g, c, pair.lane(), seeds)
		check(t, fmt.Sprintf("pool trial=%d", trial), results, errs, err)
	}
}

// collectLockstep runs one RunLockstep batch and copies every lane's
// Result and error out inside the callback. The Result the engine hands
// over lives in its scratch and is rewritten for the next lane, so two
// batches compared by reference would compare a buffer with itself.
// Every lane must reach the callback exactly once, in lane order.
func collectLockstep(g *graph.Graph, cfg Config, lp LaneProgram, seeds []uint64) ([]*Result, []error, error) {
	results := make([]*Result, 0, len(seeds))
	errs := make([]error, 0, len(seeds))
	err := RunLockstep(g, cfg, lp, seeds, func(l int, res *Result, lerr error) error {
		if l != len(results) {
			return fmt.Errorf("lane %d delivered after %d lanes", l, len(results))
		}
		results = append(results, &Result{
			Outputs:   slices.Clone(res.Outputs),
			Energy:    slices.Clone(res.Energy),
			HaltRound: slices.Clone(res.HaltRound),
			Rounds:    res.Rounds,
		})
		errs = append(errs, lerr)
		return nil
	})
	if err == nil && len(results) != len(seeds) {
		err = fmt.Errorf("got %d lane results, want %d", len(results), len(seeds))
	}
	return results, errs, err
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

	_, errs, err := collectLockstep(g, Config{Model: ModelCD, MaxRounds: 50}, &spinLaneProgram{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	capped := 0
	for _, lerr := range errs {
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

	// A capped lane's partial Result on a pool whose buffers an earlier
	// batch filled must equal the one on fresh scratch: no output or halt
	// round of the earlier batch shows through for an unhalted node.
	fresh, _, err := collectLockstep(g, Config{Model: ModelCD, MaxRounds: 50}, &spinLaneProgram{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(1)
	defer pool.Close()
	ctx := WithPool(context.Background(), pool)
	if _, _, err := collectLockstep(g, Config{Model: ModelCD, Ctx: ctx}, &benchLaneProgram{}, laneSeeds(MaxLanes, 78)); err != nil {
		t.Fatal(err)
	}
	pooled, _, err := collectLockstep(g, Config{Model: ModelCD, MaxRounds: 50, Ctx: ctx}, &spinLaneProgram{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled, fresh) {
		t.Fatal("capped lanes on a reused pool carry another batch's outputs or halt rounds")
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
	if err := ls.run(probe, func(int, *Result, error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if probe.longest != MaxLanes {
		t.Fatalf("longest event list = %d, want %d", probe.longest, MaxLanes)
	}
}

// noActionLaneProgram listens with every lane of every node in round 0.
// In round 1 node 0 sleeps all its lanes for 5 rounds, and node 1, stepped
// next, sleeps lanes l%3 ≠ 0 for 1 round and gives lanes l%3 = 0 no
// action at all; every later step halts. Node 0 leaves Sleep[l] = 5 in the
// shared LaneActions, which node 1's actionless lanes would read if the
// engine did not zero what it reads.
type noActionLaneProgram struct {
	steps []uint8
}

func (p *noActionLaneProgram) Bind(n int, seeds []uint64) {
	p.steps = make([]uint8, n)
}

func (p *noActionLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	step := p.steps[node]
	p.steps[node]++
	switch {
	case step == 0:
		act.Listen = due
	case step == 1 && node == 0:
		for m := due; m != 0; m &= m - 1 {
			act.Sleep[bits.TrailingZeros64(m)] = 5
		}
	case step == 1 && node == 1:
		for m := due; m != 0; m &= m - 1 {
			if l := bits.TrailingZeros64(m); l%3 != 0 {
				act.Sleep[l] = 1
			}
		}
	default:
		act.Halt = due
	}
}

// TestLockstepSleepZeroClamp pins the rule for a due lane that its lane
// program left without an action: RunLockstep fails in that round with an
// error naming the node, the round and the lanes, on a fresh engine and
// on a pooled one, instead of sleeping the lane for a stale Sleep entry
// until the round cap.
func TestLockstepSleepZeroClamp(t *testing.T) {
	g := graph.Cycle(10)
	var lanes []int
	for l := 0; l < MaxLanes; l += 3 {
		lanes = append(lanes, l)
	}
	want := fmt.Sprintf("radio: lane program left lanes %v of node 1 without an action in round 1", lanes)
	pool := NewPool(1)
	defer pool.Close()
	for _, ctx := range []context.Context{context.Background(), WithPool(context.Background(), pool)} {
		err := RunLockstep(g, Config{Model: ModelCD, Ctx: ctx}, &noActionLaneProgram{}, laneSeeds(MaxLanes, 1),
			func(l int, _ *Result, _ error) error {
				t.Fatalf("failed batch delivered lane %d", l)
				return nil
			})
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	}
	// The pool serves a correct program after the failed batch.
	pair := lockstepPairs()["bench"]
	runBothLockstep(t, g, Config{Model: ModelCD, Ctx: WithPool(context.Background(), pool)}, pair, laneSeeds(MaxLanes, 2))
}

func TestLockstepCancellation(t *testing.T) {
	g := graph.Cycle(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs, err := collectLockstep(g, Config{Model: ModelCD, Ctx: ctx}, &spinLaneProgram{}, laneSeeds(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	for l, lerr := range errs {
		if !errors.Is(lerr, ErrAborted) || !errors.Is(lerr, context.Canceled) {
			t.Fatalf("lane %d error = %v, want ErrAborted wrapping context.Canceled", l, lerr)
		}
	}
}

func TestLockstepRejectsScalarOnlyConfig(t *testing.T) {
	g := graph.Cycle(8)
	seeds := laneSeeds(2, 1)
	if _, _, err := collectLockstep(g, Config{Model: ModelCD, Observer: MultiObserver{}}, &benchLaneProgram{}, seeds); err == nil {
		t.Fatal("observer config should be rejected")
	}
	if _, _, err := collectLockstep(g, Config{Model: Model(99)}, &benchLaneProgram{}, seeds); err == nil {
		t.Fatal("invalid model should be rejected")
	}
	if _, _, err := collectLockstep(g, Config{Model: ModelCD}, &benchLaneProgram{}, make([]uint64, 65)); err == nil {
		t.Fatal("more than MaxLanes seeds should be rejected")
	}
}

// TestLockstepPooledSteadyStateAllocs pins the lane path's steady-state
// allocation budget: a warm pooled batch hands every lane's Result over in
// the pool's buffers, so it allocates nothing per round, per node or per
// lane. The budget leaves room for the deferred hand-back of the scratch.
func TestLockstepPooledSteadyStateAllocs(t *testing.T) {
	g := graph.GNP(512, 8.0/512, rand.New(rand.NewSource(7)))
	pool := NewPool(1)
	defer pool.Close()
	ctx := WithPool(context.Background(), pool)
	lp := &benchLaneProgram{}
	seeds := laneSeeds(64, 2)
	cfg := Config{Model: ModelCD, Ctx: ctx}
	var rounds uint64
	each := func(_ int, res *Result, err error) error {
		rounds += res.Rounds
		return err
	}
	if err := RunLockstep(g, cfg, lp, seeds, each); err != nil {
		t.Fatal(err) // warm-up: grows pool scratch and the program's state
	}
	avg := testing.AllocsPerRun(5, func() {
		if err := RunLockstep(g, cfg, lp, seeds, each); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("steady-state pooled lockstep batch allocates %.0f times, want ≤ 2", avg)
	}
}

// TestLockstepCallbackErrorStopsBatch checks that a LaneFunc error ends
// the batch with exactly that error, after the lanes before it, and that
// the pool then serves a correct batch.
func TestLockstepCallbackErrorStopsBatch(t *testing.T) {
	g := graph.Cycle(40)
	pool := NewPool(1)
	defer pool.Close()
	cfg := Config{Model: ModelCD, Ctx: WithPool(context.Background(), pool)}
	stop := errors.New("stop")
	var lanes []int
	err := RunLockstep(g, cfg, &benchLaneProgram{}, laneSeeds(MaxLanes, 4), func(l int, _ *Result, _ error) error {
		lanes = append(lanes, l)
		if l == 5 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("err = %v, want the callback's error unchanged", err)
	}
	if !reflect.DeepEqual(lanes, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("delivered lanes %v, want 0..5", lanes)
	}
	runBothLockstep(t, g, cfg, lockstepPairs()["bench"], laneSeeds(MaxLanes, 5))
}

// TestLockstepNestedOnPool runs a batch from inside another batch's
// callback on the same pool: the outer batch has lent the pool's scratch
// out, so the inner one runs on fresh scratch, and neither disturbs the
// other's results.
func TestLockstepNestedOnPool(t *testing.T) {
	g := graph.GNP(96, 6.0/96, rand.New(rand.NewSource(3)))
	pair := lockstepPairs()["drowsy"]
	seeds := laneSeeds(8, 6)
	want, _, err := collectLockstep(g, Config{Model: ModelCD}, pair.lane(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(1)
	defer pool.Close()
	cfg := Config{Model: ModelCD, Ctx: WithPool(context.Background(), pool)}
	err = RunLockstep(g, cfg, pair.lane(), seeds, func(l int, res *Result, lerr error) error {
		if l == 3 {
			inner, _, err := collectLockstep(g, cfg, pair.lane(), seeds)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(inner, want) {
				return fmt.Errorf("nested batch diverges from a standalone one")
			}
		}
		if !reflect.DeepEqual(res, want[l]) {
			return fmt.Errorf("lane %d diverges after a nested batch", l)
		}
		return lerr
	})
	if err != nil {
		t.Fatal(err)
	}
}
