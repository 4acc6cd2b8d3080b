package radio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// This file holds the round scheduler's golden parity tests: every
// (graph, config, program) here runs on both the scheduler (sched.go,
// fresh and through a Pool) and the preserved pre-rework engine
// (reference.go), and the two must agree bit-for-bit — same Result, same
// observer event stream, same error. This is the enforcement mechanism
// behind the engine rework's contract that it changes throughput only.

// parityEvent is one deep-copied observer callback, in delivery order.
type parityEvent struct {
	kind  string // "round" or "halt"
	stats RoundStats
	id    int
	out   int64
	eng   uint64
	round uint64
}

// parityObserver deep-copies every callback so streams from two runs
// can be compared after the fact.
type parityObserver struct {
	events []parityEvent
}

func (o *parityObserver) ObserveRound(s *RoundStats) {
	cp := *s
	cp.Transmitters = append([]NodeTx(nil), s.Transmitters...)
	cp.Listeners = append([]NodeRx(nil), s.Listeners...)
	cp.Crashed = append([]int(nil), s.Crashed...)
	o.events = append(o.events, parityEvent{kind: "round", stats: cp})
}

func (o *parityObserver) ObserveHalt(id int, output int64, energy, round uint64) {
	o.events = append(o.events, parityEvent{kind: "halt", id: id, out: output, eng: energy, round: round})
}

// decayProgram is the workhorse parity program: a decay-style contention
// loop exercising randomized transmit/listen interleavings, sleeps,
// phases, round-dependent behavior, and staggered halts.
func decayProgram(env *Env) int64 {
	env.Phase("decay")
	undecided := true
	var heard uint64
	for attempt := 0; undecided && attempt < 40; attempt++ {
		if env.Rand().Intn(3) == 0 {
			env.Transmit(uint64(env.ID()) + 1)
			if env.Rand().Intn(4) == 0 {
				undecided = false
			}
		} else {
			r := env.Listen()
			if r.Kind == MessageKind {
				heard = r.Payload
				undecided = false
			}
		}
		if env.Rand().Intn(5) == 0 {
			env.Phase("backoff")
			env.Sleep(uint64(env.Rand().Intn(3) + 1))
			env.Phase("decay")
		}
	}
	return int64(heard)
}

// beepProgram exercises the beeping model with unary payloads only.
func beepProgram(env *Env) int64 {
	beeps := int64(0)
	for i := 0; i < 25; i++ {
		if env.Rand().Intn(2) == 0 {
			env.TransmitBit()
		} else if env.Listen().Kind == BeepKind {
			beeps++
		}
	}
	return beeps
}

// sleepyProgram spends most rounds asleep so the due sets are sparse and
// rounds frequently have no awake node at all (exercising the heap path
// and the skip-empty-rounds accounting).
func sleepyProgram(env *Env) int64 {
	for i := 0; i < 10; i++ {
		env.Sleep(uint64(env.Rand().Intn(7) + 1))
		if env.ID()%3 == 0 {
			env.Transmit(7)
		} else {
			env.Listen()
		}
	}
	return int64(env.Energy())
}

// runAheadProgram stresses the batched hand-off: Send-style runs of
// Transmit/Sleep actions, each at least three batch capacities long, so
// nodes fill batches and block handing the next one over while the
// scheduler is still two batches behind; sparse listens in between; and a
// trailing run of id-dependent length, so halts land at every position of
// a batch.
func runAheadProgram(env *Env) int64 {
	env.Phase("run-ahead")
	heard := int64(0)
	for burst := 0; burst < 2+env.ID()%3; burst++ {
		for j := 3*batchCap + env.Rand().Intn(batchCap); j > 0; j-- {
			if env.Rand().Intn(4) == 0 {
				env.Transmit(uint64(env.ID()) + 1)
			} else {
				env.Sleep(uint64(env.Rand().Intn(3) + 1))
			}
		}
		if env.Listen().Kind == MessageKind {
			heard++
		}
	}
	for j := env.ID() % (2 * batchCap); j > 0; j-- {
		env.Sleep(1)
	}
	return heard
}

// listenRunProgram mixes Listen, ListenFor runs of 1 to 32 rounds,
// payload transmits and sleeps, and branches on what each listen heard: a
// message is echoed, a collision sends the node to sleep, silence moves
// on. With long > 0 it also listens for long rounds and for 2⁶⁴−1 rounds;
// such a run ends only when the node hears something or the run reaches
// its round cap. The output folds every reception and run length the node
// saw and its final Round and Energy, so a listen run that returns a
// different reception or length, or advances the node's clock by anything
// but its length, shows up in Result.Outputs as well as in the observer
// stream.
func listenRunProgram(long uint64) Program {
	labels := [...]string{"listen-a", "listen-b", "listen-c"}
	return func(env *Env) int64 {
		acc := uint64(env.ID())
		mix := func(v uint64) { acc = acc*0x9e3779b97f4a7c15 + v + 1 }
		for step := 0; step < 12; step++ {
			env.Phase(labels[step%len(labels)])
			var r Reception
			var got uint64
			switch x := env.Rand().Intn(8); {
			case x == 0:
				env.Transmit(uint64(env.ID())<<8 | uint64(step))
				continue
			case x == 1:
				env.Sleep(uint64(env.Rand().Intn(3) + 1))
				continue
			case x == 2:
				r, got = env.Listen(), 1
			case x == 3 && long > 0:
				r, got = env.ListenFor(long)
			case x == 4 && long > 0:
				r, got = env.ListenFor(^uint64(0))
			default:
				r, got = env.ListenFor(uint64(1 + env.Rand().Intn(32)))
			}
			mix(uint64(r.Kind)<<56 ^ r.Payload)
			mix(got)
			switch {
			case r.Kind == MessageKind:
				env.Transmit(r.Payload + 1)
			case r.Heard():
				env.Sleep(got%3 + 1)
			}
		}
		mix(env.Round())
		mix(env.Energy())
		return int64(acc)
	}
}

// listenRunCap is the round cap of the listen-run parity cases whose
// listens may run past it.
const listenRunCap = 600

// runListenRuns runs listenRunProgram through runBoth under CD and no-CD:
// once with runs of at most 32 rounds and no cap, and once with
// runs past listenRunCap under that cap, which most such runs hit.
func runListenRuns(t *testing.T, g *graph.Graph, cfg Config) {
	for _, model := range []Model{ModelCD, ModelNoCD} {
		t.Run(model.String(), func(t *testing.T) {
			c := cfg
			c.Model = model
			runBoth(t, g, c, listenRunProgram(0))
		})
		t.Run(model.String()+"/capped", func(t *testing.T) {
			c := cfg
			c.Model = model
			c.MaxRounds = listenRunCap
			runBoth(t, g, c, listenRunProgram(listenRunCap+1))
		})
	}
}

func parityGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	return map[string]*graph.Graph{
		"single":  graph.New(1),
		"pair":    graph.Complete(2),
		"star65":  graph.Star(65), // crosses the 64-bit word boundary
		"cycle97": graph.Cycle(97),
		"gnp200":  graph.GNP(200, 4.0/200, r),
		"empty50": graph.Empty(50),
	}
}

// parityRef is a reference-engine run that scheduler runs must match.
type parityRef struct {
	res *Result
	err error
	obs *parityObserver
}

// referenceRun runs cfg/program on the reference engine with an observer.
func referenceRun(g *graph.Graph, cfg Config, program Program) parityRef {
	obs := &parityObserver{}
	cfg.Observer = obs
	res, err := runReference(g, cfg, program)
	return parityRef{res, err, obs}
}

// match runs cfg/program on the scheduler twice and fails unless both
// runs return the reference's error and Result and the observed one the
// same observer stream: once with no observer, the path solve jobs take,
// on which the scheduler serves transmit runs whole, and once with an
// observer, which it serves round by round. That includes the partial
// Result of a run stopped by its round cap or by a node error
// (ErrNotUnary, an unknown intent): both engines end the round at the
// erroring node, with the nodes before it charged and halted. Only an
// aborted run's Result is left unspecified, since the round a
// cancellation is seen in depends on timing.
func (want parityRef) match(t *testing.T, label string, g *graph.Graph, cfg Config, program Program) {
	t.Helper()
	check := func(label string, res *Result, err error) {
		t.Helper()
		if (err == nil) != (want.err == nil) || (err != nil && err.Error() != want.err.Error()) {
			t.Fatalf("%s: error = %v, reference = %v", label, err, want.err)
		}
		if !errors.Is(err, ErrAborted) && !reflect.DeepEqual(res, want.res) {
			t.Fatalf("%s: Result diverges from reference\n got: %+v\nwant: %+v", label, res, want.res)
		}
	}
	cfg.Observer = nil
	res, err := Run(g, cfg, program)
	check(label+" unobserved", res, err)
	obs := &parityObserver{}
	cfg.Observer = obs
	res, err = Run(g, cfg, program)
	check(label, res, err)
	if !reflect.DeepEqual(obs.events, want.obs.events) {
		if len(obs.events) != len(want.obs.events) {
			t.Fatalf("%s: observer saw %d events, reference %d", label, len(obs.events), len(want.obs.events))
		}
		for i := range obs.events {
			if !reflect.DeepEqual(obs.events[i], want.obs.events[i]) {
				t.Fatalf("%s: observer event %d diverges\n got: %+v\nwant: %+v", label, i, obs.events[i], want.obs.events[i])
			}
		}
	}
}

// runBoth executes cfg/program on the reference engine and on the
// scheduler, fresh and twice through a Pool, and requires bit-identical
// results, errors, and observer streams everywhere.
func runBoth(t *testing.T, g *graph.Graph, cfg Config, program Program) {
	t.Helper()
	want := referenceRun(g, cfg, program)
	want.match(t, "fresh", g, cfg, program)

	// Through a Pool: twice on the same pool, so the second run exercises
	// reused scratch and the CSR cache.
	pool := NewPool()
	base := cfg.Ctx
	if base == nil {
		base = context.Background()
	}
	for trial := 0; trial < 2; trial++ {
		c := cfg
		c.Ctx = WithPool(base, pool)
		want.match(t, fmt.Sprintf("pool trial=%d", trial), g, c, program)
	}
}

func TestSchedulerParityClean(t *testing.T) {
	programs := map[string]Program{
		"decay":    decayProgram,
		"sleepy":   sleepyProgram,
		"runahead": runAheadProgram,
	}
	for gname, g := range parityGraphs(t) {
		for pname, program := range programs {
			for _, model := range []Model{ModelCD, ModelNoCD} {
				name := fmt.Sprintf("%s/%s/%s", gname, pname, model)
				t.Run(name, func(t *testing.T) {
					runBoth(t, g, Config{Model: model, Seed: 0xfeed + uint64(len(name))}, program)
				})
			}
		}
		t.Run(gname+"/beep", func(t *testing.T) {
			runBoth(t, g, Config{Model: ModelBeep, Seed: 0xbee9, UnaryOnly: true}, beepProgram)
		})
		t.Run(gname+"/listenrun", func(t *testing.T) {
			runListenRuns(t, g, Config{Seed: 0x1157 + uint64(len(gname))})
		})
		t.Run(gname+"/txrun", func(t *testing.T) {
			runTransmitRuns(t, g, Config{Seed: 0x7e11 + uint64(len(gname))})
		})
	}
}

func TestSchedulerParityWakeRound(t *testing.T) {
	g := graph.Cycle(130)
	wakes := make([]uint64, g.N())
	r := rand.New(rand.NewSource(5))
	for i := range wakes {
		wakes[i] = uint64(r.Intn(17))
	}
	runBoth(t, g, Config{Model: ModelCD, Seed: 3, WakeRound: wakes}, decayProgram)
	t.Run("listenrun", func(t *testing.T) {
		runListenRuns(t, g, Config{Seed: 3, WakeRound: wakes})
	})
	t.Run("txrun", func(t *testing.T) {
		runTransmitRuns(t, g, Config{Seed: 3, WakeRound: wakes})
	})
}

func TestSchedulerParityFaults(t *testing.T) {
	profiles := map[string]faults.Profile{
		"loss":    {Loss: 0.2},
		"noise":   {Noise: 0.1},
		"jam":     {Jammer: faults.Jammer{Budget: 6, Prob: 0.5}},
		"crash":   {Crash: faults.Crash{Rate: 0.01}},
		"restart": {Crash: faults.Crash{Rate: 0.02, RestartAfter: 3, MaxRestarts: 2}},
		"mixed": {
			Loss:   0.05,
			Noise:  0.05,
			Jammer: faults.Jammer{Budget: 3},
			Crash:  faults.Crash{Rate: 0.01, RestartAfter: 2},
		},
		"wakespread": {WakeSpread: 9},
	}
	gs := parityGraphs(t)
	for fname, fp := range profiles {
		for _, gname := range []string{"star65", "gnp200"} {
			t.Run(fname+"/"+gname, func(t *testing.T) {
				runBoth(t, gs[gname], Config{Model: ModelCD, Seed: 0xc0ffee, Faults: fp}, decayProgram)
			})
		}
	}
	// Every profile strikes listen and transmit runs: a crash inside a run
	// ends it, and each awake round of a run draws its own crash hazard,
	// losses and noise.
	for fname, fp := range profiles {
		for _, gname := range []string{"star65", "gnp200"} {
			t.Run(fname+"/"+gname+"/listenrun", func(t *testing.T) {
				runListenRuns(t, gs[gname], Config{Seed: 0xc0ffee, Faults: fp})
			})
			t.Run(fname+"/"+gname+"/txrun", func(t *testing.T) {
				runTransmitRuns(t, gs[gname], Config{Seed: 0xc0ffee, Faults: fp})
			})
		}
	}
	// Crashes that strike nodes running batches ahead: the dead life's
	// unconsumed intents must vanish on both sides of the hand-off.
	for _, fname := range []string{"crash", "restart"} {
		for _, gname := range []string{"star65", "gnp200"} {
			t.Run(fname+"/"+gname+"/runahead", func(t *testing.T) {
				runBoth(t, gs[gname], Config{Model: ModelCD, Seed: 0xc0ffee, Faults: profiles[fname]}, runAheadProgram)
			})
		}
	}
}

// nodeErrorProfiles runs a node-error case on the clean path and, through
// a crash rate that attaches an injector but never strikes, on the fault
// path.
var nodeErrorProfiles = map[string]faults.Profile{
	"clean": {},
	"fault": {Crash: faults.Crash{Rate: 1e-300}},
}

// TestSchedulerParityUnaryViolation checks that UnaryOnly violations
// produce the same error (same offending node), the same observer prefix
// and the same partial Result on both engines: the round stops at the
// violator, so the nodes below it are charged and halted and those above
// it are not. In the "runs" cases node 41 violates in round 1 while every
// other node is inside a unary transmit run of rounds 0–3, which the clean
// path serves whole at round 0: only the run's transmits the reference
// engine reaches stay charged, two below node 41 and one above it.
func TestSchedulerParityUnaryViolation(t *testing.T) {
	g := graph.Complete(80)
	single := func(env *Env) int64 {
		if env.ID() == 41 {
			env.Transmit(99) // violates unary at round 0
			return 0
		}
		if env.ID() < 41 && env.ID()%2 == 0 {
			return 1 // halts below the violator must still be observed
		}
		env.TransmitBit()
		return 0
	}
	runs := func(env *Env) int64 {
		if env.ID() == 41 {
			env.Listen()
			env.Transmit(99) // violates unary at round 1
			return 0
		}
		env.TransmitRun(0b1111, 4, 1)
		return 1
	}
	cases := []struct {
		name    string
		program Program
		energy  []uint64 // Energy[39:43]
	}{
		{"", single, []uint64{1, 0, 0, 0}},
		{"runs/", runs, []uint64{2, 2, 1, 1}},
	}
	for _, c := range cases {
		for name, fp := range nodeErrorProfiles {
			t.Run(c.name+name, func(t *testing.T) {
				cfg := Config{Model: ModelCD, Seed: 1, UnaryOnly: true, Faults: fp}
				runBoth(t, g, cfg, c.program)
				res, err := Run(g, cfg, c.program)
				if !errors.Is(err, ErrNotUnary) {
					t.Fatalf("err = %v, want ErrNotUnary", err)
				}
				if !reflect.DeepEqual(res.Energy[39:43], c.energy) || (c.name == "" && (res.HaltRound[40] != 0 || res.Outputs[40] != 1)) {
					t.Fatalf("partial Result does not stop at node 41: Energy[39:43] = %v, want %v; Outputs[40] = %d", res.Energy[39:43], c.energy, res.Outputs[40])
				}
			})
		}
	}
}

// TestSchedulerParityUnknownIntent checks that an intent of no known kind
// ends the run with the reference engine's error, observer stream and
// partial Result, in a later round and on the clean and the fault path.
// In the "runs" cases every node but 33 is inside a transmit run of
// rounds 0–3 when node 33's intent ends round 1: the reference engine
// charges two of the run's transmits below node 33 and one above it.
func TestSchedulerParityUnknownIntent(t *testing.T) {
	g := graph.Cycle(70)
	single := func(env *Env) int64 {
		env.TransmitBit()
		env.Listen()
		if env.ID() == 33 {
			env.submit(intent{kind: 99})
		}
		env.TransmitBit()
		return int64(env.ID())
	}
	runs := func(env *Env) int64 {
		if env.ID() == 33 {
			env.Listen()
			env.submit(intent{kind: 99})
			return 0
		}
		env.TransmitRun(0b1111, 4, 1)
		return int64(env.ID())
	}
	cases := []struct {
		name    string
		program Program
		energy  []uint64 // Energy[32:35]
		rounds  uint64
	}{
		{"", single, []uint64{3, 2, 2}, 2},
		{"runs/", runs, []uint64{2, 1, 1}, 1},
	}
	for _, c := range cases {
		for name, fp := range nodeErrorProfiles {
			t.Run(c.name+name, func(t *testing.T) {
				cfg := Config{Model: ModelNoCD, Seed: 5, Faults: fp}
				runBoth(t, g, cfg, c.program)
				res, err := Run(g, cfg, c.program)
				if err == nil || err.Error() != "radio: node 33 submitted unknown intent 99" {
					t.Fatalf("err = %v, want node 33's unknown intent", err)
				}
				if !reflect.DeepEqual(res.Energy[32:35], c.energy) || res.Rounds != c.rounds {
					t.Fatalf("partial Result does not stop at node 33: Energy[32:35] = %v, Rounds = %d; want %v, %d", res.Energy[32:35], res.Rounds, c.energy, c.rounds)
				}
			})
		}
	}
}

func TestSchedulerParityMaxRounds(t *testing.T) {
	g := graph.Cycle(64)
	spin := func(env *Env) int64 {
		for {
			env.Listen()
		}
	}
	runBoth(t, g, Config{Model: ModelCD, Seed: 2, MaxRounds: 50}, spin)
	if _, err := Run(g, Config{Model: ModelCD, Seed: 2, MaxRounds: 50}, spin); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

// TestAbortAndMaxRoundsDuringHandoff strikes a run with its round cap and
// with context cancellation while nodes are blocked handing off a full
// batch, on every engine and channel discipline, and requires Run to
// return the reference engine's abort error with no node goroutine left.
// Every node but 0 runs ahead without ever waiting, so it keeps a full
// batch on its hand-off and blocks sending the next. In the "listen" case
// node 0 listens every round; in the "listenrun" case it listens in runs,
// first for 4·batchCap rounds, then without end, so the cap and the
// cancellation land inside a listen run (under no-CD, where its two
// neighbours' simultaneous transmissions sound like silence). In the
// cancellation case node 0 signals once the run is well under way. A
// pooled run after the aborts must still match the reference engine: no
// aborted run may leave a node writing into the pool's batch arena.
func TestAbortAndMaxRoundsDuringHandoff(t *testing.T) {
	g := graph.Cycle(130)
	runAhead := func(env *Env) {
		for {
			env.Transmit(1)
			env.Sleep(1)
		}
	}
	programs := []struct {
		name    string
		model   Model
		program func(started chan<- struct{}) Program
	}{
		{"listen", ModelCD, func(started chan<- struct{}) Program {
			var once sync.Once
			return func(env *Env) int64 {
				if env.ID() != 0 {
					runAhead(env)
				}
				for {
					if env.Round() >= 4*batchCap && started != nil {
						once.Do(func() { close(started) })
					}
					env.Listen()
				}
			}
		}},
		{"listenrun", ModelNoCD, func(started chan<- struct{}) Program {
			return func(env *Env) int64 {
				if env.ID() != 0 {
					runAhead(env)
				}
				env.ListenFor(4 * batchCap)
				if started != nil {
					close(started)
				}
				env.ListenFor(^uint64(0))
				return 0
			}
		}},
	}
	pool := NewPool()
	engines := []struct {
		name string
		run  func(Config, Program) (*Result, error)
	}{
		{"reference", func(cfg Config, p Program) (*Result, error) { return runReference(g, cfg, p) }},
		{"sched", func(cfg Config, p Program) (*Result, error) { return Run(g, cfg, p) }},
		{"pooled", func(cfg Config, p Program) (*Result, error) {
			base := cfg.Ctx
			if base == nil {
				base = context.Background()
			}
			cfg.Ctx = WithPool(base, pool)
			return Run(g, cfg, p)
		}},
	}
	// A crash rate that never fires still switches the nodes to the
	// select discipline.
	profiles := map[string]faults.Profile{
		"fast":   {},
		"select": {Crash: faults.Crash{Rate: 1e-300}},
	}
	cancelled := func(t *testing.T, run func(Config, Program) (*Result, error), cfg Config, program func(chan<- struct{}) Program) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		started := make(chan struct{})
		errc := make(chan error, 1)
		cfg.Ctx = ctx
		go func() {
			_, err := run(cfg, program(started))
			errc <- err
		}()
		<-started
		if k := nodeGoroutines(); k != g.N() {
			t.Errorf("%d node goroutines in a running run of %d nodes", k, g.N())
		}
		cancel()
		return <-errc
	}
	for _, prog := range programs {
		for pname, fp := range profiles {
			cfg := Config{Model: prog.model, Seed: 4, Faults: fp}
			capped := cfg
			capped.MaxRounds = 10 * batchCap
			var wantCap, wantCancel string
			for _, e := range engines {
				// The listen program's subtests carry no program segment.
				label := e.name + "/" + pname
				if prog.name != "listen" {
					label += "/" + prog.name
				}
				t.Run(label+"/maxrounds", func(t *testing.T) {
					_, err := e.run(capped, prog.program(nil))
					if !errors.Is(err, ErrMaxRounds) {
						t.Fatalf("err = %v, want ErrMaxRounds", err)
					}
					if wantCap == "" {
						wantCap = err.Error()
					} else if err.Error() != wantCap {
						t.Fatalf("err = %q, reference %q", err, wantCap)
					}
					if k := nodeGoroutinesLeft(); k != 0 {
						t.Fatalf("%d node goroutines left after Run returned", k)
					}
				})
				t.Run(label+"/cancel", func(t *testing.T) {
					err := cancelled(t, e.run, cfg, prog.program)
					if !errors.Is(err, ErrAborted) {
						t.Fatalf("err = %v, want ErrAborted", err)
					}
					if wantCancel == "" {
						wantCancel = err.Error()
					} else if err.Error() != wantCancel {
						t.Fatalf("err = %q, reference %q", err, wantCancel)
					}
					if k := nodeGoroutinesLeft(); k != 0 {
						t.Fatalf("%d node goroutines left after Run returned", k)
					}
				})
			}
		}
	}
	want, err := runReference(g, Config{Model: ModelCD, Seed: 9}, runAheadProgram)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engines[2].run(Config{Model: ModelCD, Seed: 9}, runAheadProgram)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pooled run after aborted runs diverges from the reference engine")
	}
}

// nodeGoroutinesLeft counts the goroutines run spawned for nodes that are
// still alive after it returned. Run waits until every node goroutine has
// run its last deferred call, but a goroutine can still be exiting right
// after; one that stays alive for a second is left over.
func nodeGoroutinesLeft() int {
	deadline := time.Now().Add(time.Second)
	for {
		k := nodeGoroutines()
		if k == 0 || time.Now().After(deadline) {
			return k
		}
		time.Sleep(time.Millisecond)
	}
}

// nodeGoroutines counts the live goroutines that run spawned for nodes.
func nodeGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return bytes.Count(buf, []byte("created by radiomis/internal/radio.run in goroutine"))
}

// TestPoolConcurrentRunsQueue starts pooled runs from several goroutines at
// once on one Pool, half of them aborted by their round cap while nodes run
// batches ahead. A run holds the pool until its last node goroutine exited,
// because the pool's arena backs the nodes' batches until then; every
// completed run must still match the reference engine.
func TestPoolConcurrentRunsQueue(t *testing.T) {
	g := graph.Cycle(97)
	pool := NewPool()
	ctx := WithPool(context.Background(), pool)
	forever := func(env *Env) int64 {
		for {
			env.Transmit(uint64(env.ID()))
			env.Sleep(1)
		}
	}
	const runs = 6
	want := make([]*Result, runs)
	for i := 1; i < runs; i += 2 {
		res, err := runReference(g, Config{Model: ModelCD, Seed: uint64(i)}, runAheadProgram)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				_, err := Run(g, Config{Model: ModelCD, Seed: uint64(i), Ctx: ctx, MaxRounds: 10 * batchCap}, forever)
				if !errors.Is(err, ErrMaxRounds) {
					t.Errorf("run %d: err = %v, want ErrMaxRounds", i, err)
				}
				return
			}
			got, err := Run(g, Config{Model: ModelCD, Seed: uint64(i), Ctx: ctx}, runAheadProgram)
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("run %d diverges from the reference engine", i)
			}
		}(i)
	}
	wg.Wait()
}

// TestPoolSequentialRunsIndependent checks that back-to-back pooled runs on
// different graphs and configs cannot leak state through the reused
// scratch: each matches its own fresh-engine run.
func TestPoolSequentialRunsIndependent(t *testing.T) {
	pool := NewPool()
	ctx := WithPool(context.Background(), pool)

	r := rand.New(rand.NewSource(9))
	cases := []struct {
		g   *graph.Graph
		cfg Config
	}{
		{graph.GNP(300, 5.0/300, r), Config{Model: ModelCD, Seed: 1}},
		{graph.Star(20), Config{Model: ModelNoCD, Seed: 2}},
		{graph.GNP(300, 5.0/300, r), Config{Model: ModelCD, Seed: 3, Faults: faults.Profile{Loss: 0.1}}},
		{graph.Cycle(9), Config{Model: ModelBeep, Seed: 4}},
	}
	for i, tc := range cases {
		program := decayProgram
		if tc.cfg.Model == ModelBeep {
			program = beepProgram
		}
		want, wantErr := runReference(tc.g, tc.cfg, program)
		cfg := tc.cfg
		cfg.Ctx = ctx
		got, err := Run(tc.g, cfg, program)
		if err != nil || wantErr != nil {
			t.Fatalf("case %d: err = %v / %v", i, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: pooled result diverges from fresh engine", i)
		}
	}
}

// TestSchedulerParityLargeGraph checks the scheduler against the
// reference engine on a graph whose calendar buckets span two dozen
// bitset words, under CD and no-CD.
func TestSchedulerParityLargeGraph(t *testing.T) {
	g := graph.GNP(1500, 8.0/1500, rand.New(rand.NewSource(21)))
	for _, model := range []Model{ModelCD, ModelNoCD} {
		t.Run(model.String(), func(t *testing.T) {
			runBoth(t, g, Config{Model: model, Seed: 77}, decayProgram)
		})
	}
}
