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

// spreadProgram spreads a node's lanes over the lockstep calendar: each of
// two iterations opens with a sleep of 1 to 2^scale rounds, a length the
// 64 lanes of a node almost surely all draw differently at scale 16, so a
// node holds up to 64 pending rounds at once. One action later the node
// sleeps out the rest of a fixed span, which realigns its lanes (their
// entries merge), and eight coin rounds of transmit or listen follow.
func spreadProgram(scale uint) Program {
	mask := uint64(1)<<scale - 1
	return func(env *Env) int64 {
		heard := int64(0)
		for i := 0; i < 2; i++ {
			x := uint64(env.Rand().Int63())&mask + 1
			env.Sleep(x)
			if env.Rand().Int63()&1 == 1 {
				env.TransmitBit()
			} else {
				env.Listen()
			}
			env.Sleep(mask + 2 - x)
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

// spreadLaneProgram is the lane twin of spreadProgram(scale) with mask
// 2^scale − 1.
type spreadLaneProgram struct {
	mask  uint64
	state []spreadLaneState
}

// spreadPair is the spread pair at the given sleep scale.
func spreadPair(scale uint) lanePair {
	return lanePair{
		scalar: spreadProgram(scale),
		lane:   func() LaneProgram { return &spreadLaneProgram{mask: 1<<scale - 1} },
	}
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
			s.x = (out>>1)&p.mask + 1
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
			act.Sleep[l] = p.mask + 2 - s.x
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
		"spread": spreadPair(16),
	}
}

// runBothLockstep executes the pair on the scalar engine (one Run per
// seed, halts recorded by an observer) and on the lockstep engine (one
// RunLockstep across all seeds), and requires per-lane bit-identity:
// same Result, per-node halt rounds equal to the scalar observer's, same
// error text. A lane stopped by the round cap must match the scalar
// run's partial Result too. It runs the lockstep side both standalone and
// twice through a Pool (reused scratch and CSR cache), each time under a
// scheduleProbe.
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
			if lerr != nil && !errors.Is(lerr, ErrMaxRounds) {
				continue // an aborted run leaves the Result unspecified
			}
			if !reflect.DeepEqual(results[l], w.res) {
				t.Fatalf("%s: lane %d Result diverges from scalar\n got: %+v\nwant: %+v", label, l, results[l], w.res)
			}
			if !reflect.DeepEqual(results[l].HaltRound, w.halts) {
				t.Fatalf("%s: lane %d halt rounds diverge from the scalar observer's\n got: %v\nwant: %v", label, l, results[l].HaltRound, w.halts)
			}
		}
	}

	probed := func(t *testing.T, label string, cfg Config) {
		t.Helper()
		probe := &scheduleProbe{LaneProgram: pair.lane(), wake: cfg.WakeRound}
		results, errs, err := collectLockstep(g, cfg, probe, seeds)
		if probe.err != nil {
			t.Fatalf("%s: %v", label, probe.err)
		}
		check(t, label, results, errs, err)
	}
	probed(t, "standalone", cfg)

	pool := NewPool()
	base := cfg.Ctx
	if base == nil {
		base = context.Background()
	}
	for trial := 0; trial < 2; trial++ {
		c := cfg
		c.Ctx = WithPool(base, pool)
		probed(t, fmt.Sprintf("pool trial=%d", trial), c)
	}
}

// scheduleProbe wraps a lane program and checks the engine's scheduling
// from outside it. Replaying the actions the program returns, it knows
// the round each lane is due next, and so the round the engine is in
// whenever it steps a node. It records an error when the engine steps a
// node twice in one round, hands it a due lane that is not due in that
// round, or goes back in time. A lane the engine never steps again shows
// as a parity failure.
type scheduleProbe struct {
	LaneProgram
	wake []uint64 // the batch's Config.WakeRound

	dueAt []uint64 // [node*MaxLanes + lane]: the lane's next due round
	last  []uint64 // per node: round+1 of its latest Step
	round uint64   // the round of the latest Step
	err   error
}

func (p *scheduleProbe) Bind(n int, seeds []uint64) {
	p.LaneProgram.Bind(n, seeds)
	p.dueAt = make([]uint64, n*MaxLanes)
	p.last = make([]uint64, n)
	p.round, p.err = 0, nil
	if p.wake != nil {
		for v := 0; v < n; v++ {
			for l := range seeds {
				p.dueAt[v*MaxLanes+l] = p.wake[v]
			}
		}
	}
}

func (p *scheduleProbe) Step(node int, due, heard uint64, act *LaneActions) {
	p.LaneProgram.Step(node, due, heard, act)
	if p.err != nil {
		return
	}
	if due == 0 {
		p.err = fmt.Errorf("node %d stepped with no due lane", node)
		return
	}
	at := p.dueAt[node*MaxLanes:][:MaxLanes]
	r := at[bits.TrailingZeros64(due)]
	switch {
	case r < p.round:
		p.err = fmt.Errorf("node %d stepped at round %d after round %d", node, r, p.round)
	case p.last[node] == r+1:
		p.err = fmt.Errorf("node %d stepped twice in round %d", node, r)
	}
	p.round, p.last[node] = r, r+1
	// The engine's reading of act: a due lane transmits, else listens,
	// else halts, else sleeps.
	tx := act.Transmit & due
	lsn := act.Listen & due &^ tx
	hl := act.Halt & due &^ (tx | lsn)
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		if at[l] != r && p.err == nil {
			p.err = fmt.Errorf("node %d in round %d: lane %d is due in round %d", node, r, l, at[l])
		}
		switch {
		case (tx|lsn)&(1<<l) != 0:
			at[l] = r + 1
		case hl&(1<<l) != 0:
			at[l] = ^uint64(0)
		default:
			at[l] = r + act.Sleep[l]
		}
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
	pool := NewPool()
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
			pool := NewPool()
			ctx := WithPool(context.Background(), pool)
			for _, chunk := range [][]uint64{seeds[:64], seeds[64:]} {
				c := Config{Model: ModelCD, Ctx: ctx}
				runBothLockstep(t, g, c, pair, chunk)
			}
		})
	}
}

// calendarEntries counts the calendar entries of every node: its
// next-round entry and its entries in every pending bucket.
func calendarEntries(ls *lockstep) []int {
	count := make([]int, ls.n)
	for _, e := range ls.next {
		count[e.node]++
	}
	for _, pr := range ls.pending {
		for _, e := range ls.buckets[pr.id] {
			count[e.node]++
		}
	}
	return count
}

// TestLockstepEventListFull checks the premise of the spread pair: on a
// 64-lane batch its lane-distinct sleeps park one node's lanes on
// MaxLanes distinct pending rounds at once, one calendar entry each.
func TestLockstepEventListFull(t *testing.T) {
	g := graph.Cycle(97)
	cfg := Config{Model: ModelCD}
	seeds := laneSeeds(MaxLanes, 0x5b1d)
	var ls lockstep
	ls.bind(g, graph.BuildCSR(g), &cfg, len(seeds), DefaultMaxRounds)
	lp := spreadPair(16).lane()
	lp.Bind(g.N(), seeds)
	// Round 0 opens every node's long sleeps.
	if err := ls.stepRound(0, lp); err != nil {
		t.Fatal(err)
	}
	longest := slices.Max(calendarEntries(&ls))
	if longest != MaxLanes {
		t.Fatalf("most calendar entries of one node = %d, want %d", longest, MaxLanes)
	}
	if len(ls.pending) < MaxLanes {
		t.Fatalf("%d pending rounds, want at least %d", len(ls.pending), MaxLanes)
	}
	// The rest of the batch runs on from there, every lane completing.
	if err := ls.run(lp, func(l int, _ *Result, err error) error { return err }); err != nil {
		t.Fatal(err)
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
	pool := NewPool()
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
	pool := NewPool()
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
	pool := NewPool()
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
	pool := NewPool()
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

// burstActs is the least number of rounds a burstProgram node is awake.
const burstActs = 1<<16 - 1

// burstProgram is awake in every round, transmitting or listening by a
// coin, for burstActs + d rounds, d ∈ {0, 1, 2} drawn first, then halts
// with the number of its listens that heard something. Its energy is
// the round cap wherever the cap stops it.
func burstProgram(env *Env) int64 {
	acts := burstActs + uint64(env.Rand().Int63())%3
	heard := int64(0)
	for i := uint64(0); i < acts; i++ {
		if env.Rand().Int63()&1 == 1 {
			env.TransmitBit()
		} else if env.Listen().Kind != Silence {
			heard++
		}
	}
	return heard
}

type burstLaneState struct {
	rng, acts, i uint64
	heard        int64
	listened     bool
}

type burstLaneProgram struct {
	state []burstLaneState
}

func (p *burstLaneProgram) Bind(n int, seeds []uint64) {
	p.state = make([]burstLaneState, n*MaxLanes)
	for v := 0; v < n; v++ {
		for l, seed := range seeds {
			s := &p.state[v*MaxLanes+l]
			var out uint64
			s.rng, out = rng.SplitMix64(rng.Mix(seed, uint64(v)))
			s.acts = burstActs + (out>>1)%3
		}
	}
}

func (p *burstLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		s := &p.state[node*MaxLanes+l]
		bit := uint64(1) << l
		if s.listened && heard&bit != 0 {
			s.heard++
		}
		s.listened = false
		if s.i == s.acts {
			act.Halt |= bit
			act.Output[l] = s.heard
			continue
		}
		s.i++
		var out uint64
		s.rng, out = rng.SplitMix64(s.rng)
		if (out>>1)&1 == 1 {
			act.Transmit |= bit
		} else {
			act.Listen |= bit
			s.listened = true
		}
	}
}

// TestLockstepEnergyPlanes puts lane energy on the boundaries of the
// engine's bit-sliced counters: on two nodes awake in every round, each
// lane's energy is the round cap until burstProgram halts, so the caps
// land it on 2^k − 1, 2^k and 2^k + 1 and fill the top plane of the
// bits.Len64(cap) the engine keeps; at the default cap the lanes halt at
// 2^16 − 1, 2^16 and 2^16 + 1. Every lane must equal its scalar run,
// Result and ErrMaxRounds alike. One pool serves every cap, so its planes
// are resized and reused between batches.
func TestLockstepEnergyPlanes(t *testing.T) {
	g := graph.Complete(2)
	pair := lanePair{scalar: burstProgram, lane: func() LaneProgram { return &burstLaneProgram{} }}
	seeds := laneSeeds(4, 0xe7)
	pool := NewPool()
	ctx := WithPool(context.Background(), pool)
	for _, maxRounds := range []uint64{1, 2, 3, 4, 255, 256, 257, 1 << 16, 0} {
		cfg := Config{Model: ModelCD, MaxRounds: maxRounds, Ctx: ctx}
		t.Run(fmt.Sprintf("max=%d", maxRounds), func(t *testing.T) {
			runBothLockstep(t, g, cfg, pair, seeds)
		})
	}
	results, errs, err := collectLockstep(g, Config{Model: ModelCD, Ctx: ctx}, &burstLaneProgram{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for l, res := range results {
		if errs[l] != nil {
			t.Fatalf("lane %d: %v", l, errs[l])
		}
		for _, e := range res.Energy {
			seen[e] = true
		}
	}
	for _, e := range []uint64{1<<16 - 1, 1 << 16, 1<<16 + 1} {
		if !seen[e] {
			t.Errorf("no node spent %d at the default cap; energies %v", e, seen)
		}
	}
}

// FuzzLockstepParity differentially fuzzes the generic lane path: the
// spread pair at a fuzzed sleep scale (sleeps of 1 to 2^scale rounds, so
// a node's lanes spread over up to 64 pending rounds) and the bench pair,
// on a G(n ≤ 96, p) graph under a fuzzed model, lane count, WakeRound and
// round cap, must give every lane its scalar run's Result and error on
// fresh and pooled lockstep, with the schedule probe watching
// (runBothLockstep).
func FuzzLockstepParity(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(30), uint8(63), uint8(0), uint16(0), uint8(16), uint8(0))
	f.Add(uint64(2), uint8(95), uint8(10), uint8(63), uint8(17), uint16(0), uint8(3), uint8(1))
	f.Add(uint64(3), uint8(12), uint8(200), uint8(5), uint8(255), uint16(300), uint8(9), uint8(2))
	f.Add(uint64(4), uint8(64), uint8(20), uint8(63), uint8(0), uint16(40000), uint8(16), uint8(0))
	f.Add(uint64(5), uint8(0), uint8(0), uint8(0), uint8(1), uint16(1), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nodes, density, lanes, wake uint8, maxRounds uint16, scale, model uint8) {
		n := 1 + int(nodes)%96
		r := rand.New(rand.NewSource(int64(seed)))
		g := graph.GNP(n, float64(density)/256, r)
		cfg := Config{Model: Model(1 + int(model)%3), MaxRounds: uint64(maxRounds)}
		if wake != 0 {
			cfg.WakeRound = make([]uint64, n)
			for v := range cfg.WakeRound {
				cfg.WakeRound[v] = uint64(r.Intn(int(wake) + 1))
			}
		}
		seeds := laneSeeds(1+int(lanes)%MaxLanes, seed)
		t.Logf("spread at scale %d", scale%17)
		runBothLockstep(t, g, cfg, spreadPair(uint(scale%17)), seeds)
		t.Logf("bench")
		runBothLockstep(t, g, cfg, lockstepPairs()["bench"], seeds)
	})
}
