package radio

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

// DefaultMaxRounds is the safety cap on simulated rounds. The paper's
// slowest algorithm runs in O(log³ n · log Δ) rounds; even with generous
// constants this cap is far beyond any legitimate run at feasible n, so
// hitting it indicates a livelocked algorithm.
const DefaultMaxRounds = 1 << 28

// ErrMaxRounds is returned when a run exceeds its round budget.
var ErrMaxRounds = errors.New("radio: exceeded maximum simulated rounds")

// ErrAborted is returned (wrapped, with the context's cause) when a run is
// stopped by its Config.Ctx before all nodes halt.
var ErrAborted = errors.New("radio: run aborted")

// Config parameterizes a simulation run.
type Config struct {
	// Model selects the collision semantics (required).
	Model Model
	// Ctx, when non-nil, bounds the run: the coordinator checks it at
	// every round boundary and aborts with ErrAborted (wrapping the
	// context's error) once it is cancelled, tearing down all node
	// goroutines before Run returns. nil means run to completion.
	Ctx context.Context
	// Seed derives every node's private random stream; runs with equal
	// seeds (and equal inputs) are bit-for-bit identical.
	Seed uint64
	// MaxRounds caps simulated time; 0 means DefaultMaxRounds.
	MaxRounds uint64
	// Observer, when non-nil, receives structured per-round reception
	// statistics (RoundStats) and halt events. When it is nil the
	// coordinator skips all observation work and allocates nothing per
	// round; per-node halt rounds are in Result.HaltRound either way.
	Observer Observer
	// WakeRound optionally staggers node start times: node i begins
	// executing at round WakeRound[i] (its Env round counter starts
	// there). nil means synchronous wake-up at round 0 — the assumption
	// the paper's algorithms are designed for (§1.1); staggered wake-up
	// exists to demonstrate and test that assumption's necessity.
	WakeRound []uint64
	// Faults composes the channel-perturbation and node-failure models
	// applied to the run (message loss, spurious-collision noise, a
	// budgeted jamming adversary, crash/crash-restart faults, random
	// wake-up staggering). The zero profile is the clean §1.1 model and
	// runs through the exact same code path as a config without faults,
	// so clean results stay bit-for-bit identical. Faults.WakeSpread and
	// WakeRound are mutually exclusive.
	Faults faults.Profile
	// UnaryOnly makes the engine reject any transmission whose payload is
	// not the single bit 1, aborting the run with ErrNotUnary. It verifies
	// the paper's §1.3 claim that its algorithms perform only unary
	// communication (and are therefore beeping-compatible).
	UnaryOnly bool
	// Perf, when non-nil, receives the run's scheduler performance
	// counters (executed rounds, loop time, hand-off waits, pool/CSR
	// reuse, buffer growth — see RunPerf). Collection is out-of-band: the Result and
	// observer stream are bit-identical with Perf set or nil, and a nil
	// Perf costs the scheduler nothing. The preserved reference engine
	// ignores it.
	Perf *RunPerf
}

// ErrNotUnary is returned when a run configured with UnaryOnly transmits a
// payload other than 1.
var ErrNotUnary = errors.New("radio: non-unary transmission under UnaryOnly")

// lifeSalt separates the seed domains of a node's successive lives under
// crash-restart faults: a node's first life draws from ForNode(seed, i) as
// always; its (L+2)-th life draws from ForNode(Mix(seed, lifeSalt+L), i).
// The value is arbitrary; it only needs to be fixed so runs stay
// reproducible.
const lifeSalt uint64 = 0x11fe_57a6_0000_0001

// Result summarizes a completed run.
type Result struct {
	// Outputs holds each node's program return value.
	Outputs []int64
	// Energy holds each node's awake-round count — the paper's energy
	// complexity measure, per node.
	Energy []uint64
	// HaltRound holds the round in which each node's program returned —
	// the round Observer.ObserveHalt reports — or 0 if it never halted
	// (terminally crashed, or cut off by an abort or a node error).
	HaltRound []uint64
	// Rounds is the total number of rounds elapsed until the last awake
	// action (the round complexity of the run).
	Rounds uint64
	// Crashed marks nodes that were dead when the run ended (their
	// Outputs entry is meaningless). nil unless Config.Faults enables
	// crash faults.
	Crashed []bool
	// Faults counts the fault events the run experienced (losses, noise
	// hits, jams, crashes, restarts). nil for clean runs.
	Faults *faults.Stats
}

// MaxEnergy returns the worst-case (maximum) per-node energy — the paper's
// energy complexity.
func (r *Result) MaxEnergy() uint64 {
	var max uint64
	for _, e := range r.Energy {
		if e > max {
			max = e
		}
	}
	return max
}

// AvgEnergy returns the node-averaged energy.
func (r *Result) AvgEnergy() float64 {
	if len(r.Energy) == 0 {
		return 0
	}
	var sum uint64
	for _, e := range r.Energy {
		sum += e
	}
	return float64(sum) / float64(len(r.Energy))
}

// TotalEnergy returns the sum of all nodes' energies.
func (r *Result) TotalEnergy() uint64 {
	var sum uint64
	for _, e := range r.Energy {
		sum += e
	}
	return sum
}

// batchCap is the capacity of each intent batch a node hands to the
// scheduler (see Env.flush). A node program runs ahead of the scheduler —
// queueing its next transmit and sleep actions without a goroutine switch
// per action — until it must wait for a reception, halts, or fills a
// batch. A listen run of any length is one intent and ends its batch; a
// transmit run of up to 63 rounds takes two slots. The scheduler consumes
// exactly one intent per scheduled round regardless of capacity
// (re-serving a listen run's intent until the run ends, and a transmit
// run's at each transmit or, unobserved and clean, once for the whole
// run), so results are identical at any capacity; only the number of
// goroutine switches changes. backoff.Send submits one transmit run per 63 rounds of
// slots, so a sender fills a batch only every 16 runs; the capacity
// matters most for programs that still transmit and sleep one action at a
// time, such as the Decay baselines.
const batchCap = 32

// Run simulates program on every vertex of g under cfg and blocks until all
// nodes halt. It returns ErrMaxRounds (wrapped) if the round budget is
// exhausted; in that case all node goroutines are torn down before Run
// returns.
//
// Runs execute on the round scheduler (see sched.go), which advances all
// awake nodes one round at a time on the calling goroutine. Attach a Pool
// (WithPool) to reuse the scheduler's round buffers, the nodes' intent
// batches and the CSR snapshot across many runs, e.g. across the trials of
// a benchmark batch.
func Run(g *graph.Graph, cfg Config, program Program) (*Result, error) {
	return run(g, cfg, program, false)
}

// run is the shared entry point behind Run (round scheduler) and
// runReference (the pre-rework engine kept for differential testing).
func run(g *graph.Graph, cfg Config, program Program, reference bool) (*Result, error) {
	if cfg.Model < ModelCD || cfg.Model > ModelBeep {
		return nil, fmt.Errorf("radio: invalid model %v", cfg.Model)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}
	n := g.N()
	res := &Result{
		Outputs:   make([]int64, n),
		Energy:    make([]uint64, n),
		HaltRound: make([]uint64, n),
	}
	if n == 0 {
		return res, nil
	}

	if cfg.WakeRound != nil && len(cfg.WakeRound) != n {
		return nil, fmt.Errorf("radio: WakeRound has %d entries, graph has %d nodes", len(cfg.WakeRound), n)
	}
	// Compile the fault profile. Zero profiles get no injector at all, so
	// a clean run is structurally identical to one configured before the
	// fault layer existed — the zero-fault parity guarantee.
	var inj *faults.Injector
	if !cfg.Faults.IsZero() {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("radio: %w", err)
		}
		if cfg.Faults.WakeSpread > 0 && cfg.WakeRound != nil {
			return nil, errors.New("radio: Config.WakeRound and Faults.WakeSpread are mutually exclusive")
		}
		inj = faults.NewInjector(cfg.Faults, cfg.Seed, n)
		if inj.HasCrash() {
			res.Crashed = make([]bool, n)
		}
	}
	// A pooled run holds its Pool from spawn to teardown: the pool's arena
	// backs the node goroutines' batches, and a node may still write its
	// batch after the scheduler loop ends, until wg.Wait below.
	var pool *Pool
	if !reference {
		pool = poolFrom(cfg.Ctx)
	}
	if pool != nil {
		pool.mu.Lock()
		defer pool.mu.Unlock()
	}
	// The reference engine keeps the historical single-slot rendezvous so
	// differential benchmarks measure the pre-rework synchronization cost.
	capacity := batchCap
	if reference {
		capacity = 1
	}
	per := 3 * capacity // one node's ring of three batch buffers
	var arena []intent
	if pool != nil {
		arena = pool.arena(n * per)
	} else {
		arena = make([]intent, n*per)
	}
	kill := make(chan struct{})
	down := new(atomic.Bool)
	var wg sync.WaitGroup
	envs := make([]*Env, n)
	wakes := make([]uint64, n)
	// The select-free channel discipline (Env.fast) needs nothing able to
	// preempt a blocked node: no crash faults, and not the reference
	// engine (whose select cost is preserved deliberately).
	fast := !reference && (inj == nil || !inj.HasCrash())
	for i := 0; i < n; i++ {
		switch {
		case cfg.WakeRound != nil:
			wakes[i] = cfg.WakeRound[i]
		case inj != nil:
			wakes[i] = inj.WakeRound(i)
		}
		envs[i] = &Env{
			id:      i,
			n:       n,
			src:     rng.NodeSource(cfg.Seed, i),
			round:   wakes[i],
			ring:    arena[i*per : (i+1)*per : (i+1)*per],
			fill:    arena[i*per : i*per : i*per+capacity],
			handoff: make(chan []intent, 1),
			replyCh: make(chan Reception, 1),
			kill:    kill,
			fast:    fast,
			down:    down,
			ref:     reference,
		}
		envs[i].rand = rand.New(&envs[i].src)
		if inj != nil && inj.HasCrash() {
			envs[i].crashCh = make(chan crashSignal)
		}
	}
	for i := 0; i < n; i++ {
		env := envs[i]
		wg.Add(1)
		// Each node runs under a supervisor loop: one program invocation
		// per "life". A crash fault unwinds the current life via a
		// crashSignal panic; crash-restart lives re-run the program from
		// scratch at the coordinator-scheduled resume round.
		go func() {
			defer wg.Done()
			for life := uint64(0); ; life++ {
				sig, crashed := runLife(env, program)
				if !crashed {
					if env.crashCh == nil {
						return // halted or engine shutdown; no crash faults
					}
					// Halted — but the crash decision for this life's final
					// transmit may still be in flight: the program can buffer
					// its halt intent and return before the coordinator
					// (blocked on the unbuffered crash channel) delivers the
					// signal. Stay receptive until the engine shuts down so
					// that send always finds a receiver.
					select {
					case sig = <-env.crashCh:
						// The crash struck the final action after all; handle
						// it exactly like an in-flight crash.
					case <-env.kill:
						return
					}
				}
				if !sig.restart {
					return // crash-stop
				}
				// Reboot: the dying life may have queued intents after the
				// coordinator consumed its last one (a batch on the
				// hand-off, and an unflushed one); discard them so the next
				// life starts clean. The coordinator discarded the rest of
				// the batch it was consuming when it struck.
				env.restart()
				env.round = sig.resumeRound
				env.energy = 0
				env.phase = ""
				// A dying life may have drawn from its random stream after
				// the crash was decided but before it observed the signal —
				// how many draws depends on goroutine scheduling. A fresh
				// per-life stream keeps rebooted runs deterministic (and
				// matches reality: a rebooted device reseeds its PRNG).
				// Rand wraps src, so reseeding src in place reseeds both.
				env.src = rng.NodeSource(rng.Mix(cfg.Seed, lifeSalt+life), env.id)
				// Ack the coordinator: the old life is fully unwound and its
				// stale intents discarded, so the next life's intents are the
				// only thing the coordinator can observe from this node.
				env.crashCh <- crashSignal{}
			}
		}()
	}

	var err error
	if reference {
		err = coordinateReference(g, cfg, inj, maxRounds, envs, wakes, res)
	} else {
		err = coordinate(g, cfg, pool, inj, maxRounds, envs, wakes, res)
	}
	if inj != nil {
		stats := inj.Stats()
		res.Faults = &stats
	}
	// Tear the node goroutines down. Fast-discipline nodes have no kill
	// case in their channel operations; they observe shutdown through the
	// down flag (checked before every hand-off) and the closed reply
	// channel (for a node blocked in Listen). Raising the flag before the
	// drain below guarantees a sender it unblocks cannot hand off again:
	// its next hand-off sees the flag and unwinds. Select-discipline nodes
	// observe the kill channel directly.
	down.Store(true)
	close(kill)
	for _, env := range envs {
		if env.fast {
			close(env.replyCh)
		}
		select {
		case <-env.handoff:
		default:
		}
	}
	wg.Wait()
	return res, err
}

// runLife executes one life of a node program: from (re)start to a normal
// halt, an engine shutdown, or a crash fault. It reports whether the life
// ended in a crash and, if so, the signal carrying the restart decision.
func runLife(env *Env, program Program) (sig crashSignal, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case killedError:
				// Engine shutdown; exit quietly.
			case crashSignal:
				sig, crashed = v, true
			default:
				panic(r) // real bug in a node program
			}
		}
	}()
	out := program(env)
	env.fill = append(env.fill, intent{kind: intentHalt, arg: uint64(out)})
	env.flush()
	return crashSignal{}, false
}

// eventHeap is a binary min-heap of pending node wake-ups ordered by
// (round, id). It is hand-rolled instead of wrapping container/heap
// because the interface boxing of heap.Push allocates on every call — the
// coordinator's hottest operation — whereas the typed version keeps the
// steady-state scheduler allocation-free (see TestNilObserverAddsNoAllocs).
type eventHeap []event

type event struct {
	round uint64
	id    int
}

func (h eventHeap) less(i, j int) bool {
	if h[i].round != h[j].round {
		return h[i].round < h[j].round
	}
	return h[i].id < h[j].id
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < len(s) && s.less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < len(s) && s.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

func (h eventHeap) peekRound() uint64 { return h[0].round }
