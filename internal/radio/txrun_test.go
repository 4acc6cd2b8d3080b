package radio

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// transmitRunProgram mixes transmit runs with Transmit, Sleep and listen
// runs, and answers a heard message with a short run. Runs span 1 to 63
// rounds under masks that are empty, sparse, random or full, that
// transmit only in their last round, or whose only bit may lie at or
// above the span. The output folds every reception and run length the node
// saw and its final Round and Energy, so a run that transmits in another
// round or advances the node's clock by anything but its span shows up in
// Result.Outputs as well as in the observer stream.
func transmitRunProgram(env *Env) int64 {
	labels := [...]string{"run-a", "run-b", "run-c"}
	acc := uint64(env.ID())
	mix := func(v uint64) { acc = acc*0x9e3779b97f4a7c15 + v + 1 }
	for step := 0; step < 14; step++ {
		env.Phase(labels[step%len(labels)])
		payload := uint64(env.ID())<<8 | uint64(step)
		rnd := env.Rand()
		switch x := rnd.Intn(10); {
		case x == 0:
			env.Transmit(payload)
		case x == 1:
			env.Sleep(uint64(rnd.Intn(3) + 1))
		case x <= 3:
			r, got := env.ListenFor(uint64(1 + rnd.Intn(16)))
			mix(uint64(r.Kind)<<56 ^ r.Payload)
			mix(got)
			if r.Kind == MessageKind {
				env.TransmitRun(0b101, 3, r.Payload+1)
			}
		default:
			span := uint64(1 + rnd.Intn(maxRunSpan))
			var mask uint64
			switch rnd.Intn(6) {
			case 0:
			case 1:
				mask = rnd.Uint64() & rnd.Uint64() & rnd.Uint64()
			case 2:
				mask = rnd.Uint64()
			case 3:
				mask = ^uint64(0)
			case 4:
				mask = 1 << (span - 1)
			default:
				mask = 1 << rnd.Intn(64)
			}
			env.TransmitRun(mask, span, payload)
		}
	}
	mix(env.Round())
	mix(env.Energy())
	return int64(acc)
}

// txRunCap is the round cap of the transmit-run parity cases that stop
// inside runs.
const txRunCap = 150

// runTransmitRuns checks transmitRunProgram against the reference engine
// under CD and no-CD, once to completion and once under txRunCap, which
// falls inside many nodes' runs: on the scheduler, fresh and once through
// a Pool.
func runTransmitRuns(t *testing.T, g *graph.Graph, cfg Config) {
	check := func(t *testing.T, c Config) parityRef {
		want := referenceRun(g, c, transmitRunProgram)
		want.match(t, "fresh", g, c, transmitRunProgram)
		base := c.Ctx
		if base == nil {
			base = context.Background()
		}
		c.Ctx = WithPool(base, NewPool())
		want.match(t, "pooled", g, c, transmitRunProgram)
		return want
	}
	for _, model := range []Model{ModelCD, ModelNoCD} {
		t.Run(model.String(), func(t *testing.T) {
			c := cfg
			c.Model = model
			check(t, c)
		})
		t.Run(model.String()+"/capped", func(t *testing.T) {
			c := cfg
			c.Model = model
			c.MaxRounds = txRunCap
			if err := check(t, c).err; !errors.Is(err, ErrMaxRounds) {
				t.Fatalf("reference err = %v, want the round cap", err)
			}
		})
	}
}

// runsOnlyProgram is awake only in transmit runs, with one listen at the
// end, so every crash that strikes it strikes a run's transmit round.
func runsOnlyProgram(env *Env) int64 {
	env.Phase("runs")
	for i := 0; i < 8; i++ {
		env.TransmitRun(env.Rand().Uint64(), uint64(8+env.Rand().Intn(56)), uint64(env.ID())+1)
	}
	return int64(env.Listen().Kind)
}

func TestSchedulerParityTransmitRunCrashes(t *testing.T) {
	g := graph.GNP(200, 4.0/200, rand.New(rand.NewSource(12)))
	for name, fp := range map[string]faults.Profile{
		"crash":   {Crash: faults.Crash{Rate: 0.01}},
		"restart": {Crash: faults.Crash{Rate: 0.02, RestartAfter: 3, MaxRestarts: 2}},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Model: ModelNoCD, Seed: 0x7a, Faults: fp}
			want, err := runReference(g, cfg, runsOnlyProgram)
			if err != nil {
				t.Fatal(err)
			}
			if want.Faults.Crashes == 0 {
				t.Fatal("no crash struck a transmit run")
			}
			runBoth(t, g, cfg, runsOnlyProgram)
		})
	}
}

// TestTransmitRunPastCap runs transmit runs into the round cap with no
// node visited between the runs' first round and the cap: every node of a
// cycle transmits in rounds 0 and id+3 of a 20-round run and nobody
// listens, so on the clean path the rounds after 0 are never executed. At
// every cap the Result must count the transmits below it, and only those,
// as the reference engine does.
func TestTransmitRunPastCap(t *testing.T) {
	g := graph.Cycle(10)
	program := func(env *Env) int64 {
		env.TransmitRun(1|1<<(env.ID()+3), 20, 1)
		return 0
	}
	for _, limit := range []uint64{1, 2, 4, 9, 12, 13, 20, 21} {
		t.Run(fmt.Sprintf("cap=%d", limit), func(t *testing.T) {
			runBoth(t, g, Config{Model: ModelNoCD, Seed: 1, MaxRounds: limit}, program)
		})
	}
}

// TestTransmitRunEdges pins TransmitRun's contract on every engine: a
// zero mask sleeps the span, mask bits at or above the span are ignored, a
// span of 63 works and may end on a transmit, a run may open with a gap, a
// span of 0 does nothing, and a span above 63 panics with a message before
// it submits anything. Round and Energy advance by the span and the
// rounds transmitted. Node 1 listens throughout and records when it heard
// which payload.
func TestTransmitRunEdges(t *testing.T) {
	type call struct {
		mask, span    uint64
		round, energy uint64
	}
	calls := []call{
		{mask: 0, span: 5, round: 5, energy: 0},
		{mask: 0b1010 | 0xff<<4 | 1<<63, span: 4, round: 9, energy: 2},
		{mask: 1<<62 | 1, span: 63, round: 72, energy: 4},
		{mask: 0b100, span: 3, round: 75, energy: 5},
		{mask: 0b11, span: 0, round: 75, energy: 5},
		{mask: 1, span: 64, round: 75, energy: 5},
		{mask: 1, span: 1, round: 76, energy: 6},
	}
	type heard struct{ round, payload uint64 }
	wantHeard := []heard{{6, 1}, {8, 1}, {9, 2}, {71, 2}, {74, 3}, {75, 6}}
	const wantPanic = "radio: TransmitRun span 64 exceeds 63 rounds"
	var (
		got      []call
		gotHeard []heard
		panicked string
	)
	program := func(env *Env) int64 {
		if env.ID() == 0 {
			for i, c := range calls {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked = fmt.Sprint(r)
						}
					}()
					env.TransmitRun(c.mask, c.span, uint64(i))
				}()
				got = append(got, call{c.mask, c.span, env.Round(), env.Energy()})
			}
			return 0
		}
		for env.Round() < 80 {
			r, _ := env.ListenFor(80 - env.Round())
			if r.Kind == MessageKind {
				gotHeard = append(gotHeard, heard{env.Round() - 1, r.Payload})
			}
		}
		return 0
	}
	pool := NewPool()
	for _, model := range []Model{ModelCD, ModelNoCD} {
		for _, engine := range []string{"reference", "sched", "pooled", "select"} {
			cfg := Config{Model: model, Seed: 1}
			run := Run
			switch engine {
			case "reference":
				run = runReference
			case "pooled":
				cfg.Ctx = WithPool(context.Background(), pool)
			case "select": // a crash rate that never fires
				cfg.Faults = faults.Profile{Crash: faults.Crash{Rate: 1e-300}}
			}
			got, gotHeard, panicked = got[:0], gotHeard[:0], ""
			res, err := run(graph.Complete(2), cfg, program)
			if err != nil {
				t.Fatalf("%v/%s: %v", model, engine, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(calls) {
				t.Errorf("%v/%s: Round and Energy after each run\n got: %+v\nwant: %+v", model, engine, got, calls)
			}
			if fmt.Sprint(gotHeard) != fmt.Sprint(wantHeard) {
				t.Errorf("%v/%s: listener heard %v, want %v", model, engine, gotHeard, wantHeard)
			}
			if panicked != wantPanic {
				t.Errorf("%v/%s: span 64 panicked with %q, want %q", model, engine, panicked, wantPanic)
			}
			if res.Energy[0] != 6 {
				t.Errorf("%v/%s: sender energy %d, want 6", model, engine, res.Energy[0])
			}
		}
	}
}

// TestTransmitRunBatchBoundary places a run at every slot near the end of
// a batch: after lead single-slot intents its header lands in the last
// slot or the one before, or opens the next batch. A header must not be
// parted from its payload slot, so a run that would fill a batch's last
// slot hands the batch over first. Every placement must match the
// reference engine and deliver the run's transmissions where it put them.
func TestTransmitRunBatchBoundary(t *testing.T) {
	g := graph.Complete(2)
	for _, lead := range []int{batchCap - 3, batchCap - 2, batchCap - 1, batchCap, 2*batchCap - 1} {
		program := func(env *Env) int64 {
			if env.ID() == 1 {
				var heard int64
				for env.Round() < uint64(lead)+20 {
					if env.Listen().Kind == MessageKind {
						heard = heard<<8 | int64(env.Round())
					}
				}
				return heard
			}
			for i := 0; i < lead; i++ {
				env.Sleep(1)
			}
			env.TransmitRun(0b1011, 4, 7)
			env.TransmitRun(1<<5, 6, 8)
			return int64(env.Round())
		}
		t.Run(fmt.Sprintf("lead=%d", lead), func(t *testing.T) {
			runBoth(t, g, Config{Model: ModelNoCD, Seed: 2}, program)
			res, err := Run(g, Config{Model: ModelNoCD, Seed: 2}, program)
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			for _, off := range []int{0, 1, 3, 9} {
				want = want<<8 | int64(lead+off+1)
			}
			if res.Outputs[1] != want || res.Energy[0] != 4 || res.Outputs[0] != int64(lead+10) {
				t.Errorf("heard %#x, want %#x; sender energy %d, round %d", res.Outputs[1], want, res.Energy[0], res.Outputs[0])
			}
		})
	}
}

// TestTransmitRunUnaryOnly checks that a run with a non-unary payload
// fails under UnaryOnly in its first transmit round, with the error a
// Transmit of that payload in that round gives, after the same observer
// stream, on the clean and the fault path.
func TestTransmitRunUnaryOnly(t *testing.T) {
	g := graph.Complete(3)
	body := func(run func(env *Env)) Program {
		return func(env *Env) int64 {
			switch env.ID() {
			case 0:
				run(env)
			case 1:
				for i := 0; i < 6; i++ {
					env.TransmitBit()
				}
			default:
				for i := 0; i < 6; i++ {
					env.Listen()
				}
			}
			return 0
		}
	}
	runs := body(func(env *Env) { env.TransmitRun(0b1100, 4, 5) })
	single := body(func(env *Env) {
		env.Sleep(2)
		env.Transmit(5)
	})
	for _, fp := range []faults.Profile{{}, {Crash: faults.Crash{Rate: 1e-300}}} {
		cfg := Config{Model: ModelCD, Seed: 3, UnaryOnly: true, Faults: fp}
		runBoth(t, g, cfg, runs)
		obs := &parityObserver{}
		cfg.Observer = obs
		_, err := Run(g, cfg, runs)
		_, want := Run(g, Config{Model: ModelCD, Seed: 3, UnaryOnly: true, Faults: fp}, single)
		if !errors.Is(err, ErrNotUnary) || err.Error() != want.Error() {
			t.Fatalf("err = %v, want %v", err, want)
		}
		if len(obs.events) != 2 {
			t.Errorf("observer saw %d events before the error, want rounds 0 and 1", len(obs.events))
		}
	}
}

// runScriptProgram decodes script into per-node action lists like
// scriptProgram (node v starts at byte 5v, wrapping, and runs up to 16
// actions; a byte's low three bits pick the action and its high five bits
// a its operand), with transmit runs whose mask m is the script's next
// eight bytes:
//
//	0 Transmit(a + id)      4 TransmitRun(m, a + 1, id + 1)
//	1 Sleep(a)              5 TransmitRun(m, 63 − a, a)
//	2 Listen()              6 TransmitRun(m & m>>1 & m>>2, 2a + 1, 1)
//	3 ListenFor(8a + 1)     7 if the last listen heard: TransmitRun(m, a + 1, payload + 1)
//
// The output folds every reception and run length and the final Round and
// Energy.
func runScriptProgram(script []byte) Program {
	return func(env *Env) int64 {
		acc := uint64(env.ID())
		if len(script) == 0 {
			return int64(acc)
		}
		mix := func(v uint64) { acc = acc*0x9e3779b97f4a7c15 + v + 1 }
		last := Reception{Kind: Silence}
		pos := 5 * env.ID()
		next := func() byte {
			b := script[pos%len(script)]
			pos++
			return b
		}
		mask := func() uint64 {
			var m uint64
			for k := 0; k < 8; k++ {
				m = m<<8 | uint64(next())
			}
			return m
		}
		id := uint64(env.ID())
		for step := 0; step < 16; step++ {
			b := next()
			a := uint64(b >> 3)
			var got uint64
			switch b & 7 {
			case 0:
				env.Transmit(a + id)
				continue
			case 1:
				env.Sleep(a)
				continue
			case 2:
				last, got = env.Listen(), 1
			case 3:
				last, got = env.ListenFor(8*a + 1)
			case 4:
				env.TransmitRun(mask(), a+1, id+1)
				continue
			case 5:
				env.TransmitRun(mask(), maxRunSpan-a, a)
				continue
			case 6:
				m := mask()
				env.TransmitRun(m&(m>>1)&(m>>2), 2*a+1, 1)
				continue
			case 7:
				m := mask()
				if last.Heard() {
					env.TransmitRun(m, a+1, last.Payload+1)
				}
				continue
			}
			mix(uint64(last.Kind)<<56 ^ last.Payload)
			mix(got)
		}
		mix(env.Round())
		mix(env.Energy())
		return int64(acc)
	}
}

// FuzzTransmitRunParity differentially fuzzes transmit runs: per-node
// action scripts (see runScriptProgram) mixing runs, transmits, sleeps and
// listen runs on a small random graph, under a fuzzed model, UnaryOnly
// flag and fault profile and a 512-round cap that long scripts reach, must
// give the reference engine's Result, error and observer stream on the
// scheduler, fresh and pooled.
func FuzzTransmitRunParity(f *testing.F) {
	f.Add(uint8(12), uint8(60), uint8(0), uint8(0), []byte{0x1c, 0xff, 0x01, 0x80, 0x00, 0x10, 0x03, 0x5a, 0xa5, 0x02, 0x0b})
	f.Add(uint8(70), uint8(20), uint8(1), uint8(4), []byte{0xfd, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x13, 0x02})
	f.Add(uint8(90), uint8(30), uint8(1), uint8(5), []byte{0x8c, 0x00, 0x0e, 0x2a, 0x0d, 0x06, 0x01, 0x03, 0xff, 0x1b, 0x0f})
	f.Add(uint8(33), uint8(90), uint8(0x82), uint8(6), []byte{0x0e, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x05})
	f.Add(uint8(5), uint8(255), uint8(0x80), uint8(1), []byte{0xf4, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x1f})
	f.Add(uint8(80), uint8(40), uint8(2), uint8(7), []byte{0x9b, 0x24, 0x07, 0x02, 0x63, 0x44, 0x81, 0x00, 0x3c, 0x1a})
	f.Fuzz(func(t *testing.T, nodes, density, model, profile uint8, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		n := 1 + int(nodes)%96
		g := graph.GNP(n, float64(density)/1024, rand.New(rand.NewSource(int64(nodes)<<8|int64(density))))
		cfg := Config{
			Model:     Model(1 + int(model&0x7f)%3),
			Seed:      uint64(model)<<8 | uint64(profile),
			MaxRounds: 512,
			Faults:    listenFuzzProfiles[int(profile)%len(listenFuzzProfiles)],
			UnaryOnly: model&0x80 != 0,
		}
		program := runScriptProgram(script)
		want := referenceRun(g, cfg, program)
		want.match(t, "fresh", g, cfg, program)
		cfg.Ctx = WithPool(context.Background(), NewPool())
		want.match(t, "pooled", g, cfg, program)
	})
}

// TestTransmitRunMatchesLoop checks a transmit run against the loop of
// Transmit and Sleep calls it stands for, written out in the program, on
// the scheduler: the same Result and observer stream for random masks and
// spans on a random graph, with and without a fault injector.
func TestTransmitRunMatchesLoop(t *testing.T) {
	program := func(loop bool) Program {
		return func(env *Env) int64 {
			env.Phase("tx")
			var heard uint64
			for i := 0; i < 6; i++ {
				mask := env.Rand().Uint64() & env.Rand().Uint64()
				span := uint64(1 + env.Rand().Intn(maxRunSpan))
				if loop {
					for k := uint64(0); k < span; k++ {
						if mask>>k&1 != 0 {
							env.Transmit(uint64(env.ID()))
						} else {
							env.Sleep(1)
						}
					}
				} else {
					env.TransmitRun(mask, span, uint64(env.ID()))
				}
				r, _ := env.ListenFor(4)
				heard = heard*31 + r.Payload + uint64(r.Kind)
			}
			return int64(heard)
		}
	}
	g := graph.GNP(150, 6.0/150, rand.New(rand.NewSource(8)))
	for _, fp := range []faults.Profile{{}, {Loss: 0.2, Crash: faults.Crash{Rate: 0.01, RestartAfter: 5}}} {
		cfg := Config{Model: ModelNoCD, Seed: 4, Faults: fp}
		wantObs, gotObs := &parityObserver{}, &parityObserver{}
		cfg.Observer = wantObs
		want, err := Run(g, cfg, program(true))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Observer = gotObs
		got, err := Run(g, cfg, program(false))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("faults %+v: TransmitRun diverges from its Transmit/Sleep loop", fp)
		}
		if !reflect.DeepEqual(gotObs.events, wantObs.events) {
			t.Fatalf("faults %+v: observer streams diverge", fp)
		}
	}
}
