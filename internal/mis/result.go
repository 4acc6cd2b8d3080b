package mis

import (
	"context"
	"fmt"
	"slices"
	"time"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/radio"
	"radiomis/internal/trace"
)

// Status is a node's final verdict.
type Status int64

// Node verdicts. StatusUndecided means the algorithm's phase budget ran out
// before the node decided — a (low-probability) algorithm failure that
// Result.Check reports. StatusCrashed means the fault layer terminally
// killed the node (only possible under a crash-fault profile; see
// SolveWithFaults); a crashed node has no verdict of its own.
const (
	StatusUndecided Status = 0
	StatusInMIS     Status = 1
	StatusOutMIS    Status = 2
	StatusCrashed   Status = 3
)

// String returns the status's canonical name.
func (s Status) String() string {
	switch s {
	case StatusUndecided:
		return "undecided"
	case StatusInMIS:
		return "in-mis"
	case StatusOutMIS:
		return "out-mis"
	case StatusCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("status(%d)", int64(s))
	}
}

// Result is the outcome of a distributed MIS run.
type Result struct {
	// Status holds each node's verdict.
	Status []Status
	// InMIS marks the computed set (InMIS[v] ⇔ Status[v] == StatusInMIS).
	InMIS []bool
	// Energy holds each node's awake-round count.
	Energy []uint64
	// DecisionRound holds the round at which each node's program halted
	// (the engine's radio.Result.HaltRound) — the instrumentation behind
	// the residual-graph experiment (E3).
	DecisionRound []uint64
	// Rounds is the run's round complexity.
	Rounds uint64
	// Undecided counts nodes that failed to decide.
	Undecided int
	// Crashed marks nodes the fault layer terminally killed (their Status
	// is StatusCrashed). nil unless the run had crash faults enabled.
	Crashed []bool
	// Faults counts the fault events the run experienced. nil for clean
	// runs.
	Faults *faults.Stats
}

// EngineSliceRounds is the round-slice sampling granularity used when a
// trace.Tracer rides the run's context: one engine span per this many
// executed rounds. Coarse on purpose — spans attribute wall time at the
// scheduler-loop level, never inside the per-node hot path.
const EngineSliceRounds = 256

// runProgramObserved executes program on g under the model and converts
// the raw simulation outcome into an MIS result; Run resolves here. ctx
// bounds the simulation (the engine aborts cooperatively at round
// granularity), fp attaches a fault profile (the zero profile skips the
// injection layer entirely), and obs an optional radio.Observer; a nil
// observer costs nothing. When a trace.Tracer is installed on ctx, the
// run additionally samples the scheduler loop into round slices
// (radio.RunPerf.SliceEvery) and emits them as "engine.rounds" spans
// under ctx's current span; with no tracer the run is bit-identical and
// pays one context lookup.
func runProgramObserved(ctx context.Context, g *graph.Graph, model radio.Model, seed uint64, fp faults.Profile, obs radio.Observer, program radio.Program) (*Result, error) {
	cfg := radio.Config{Model: model, Ctx: ctx, Seed: seed, Faults: fp, Observer: obs}
	tr := trace.FromContext(ctx)
	if tr != nil {
		cfg.Perf = &radio.RunPerf{SliceEvery: EngineSliceRounds}
	}
	rr, err := radio.Run(g, cfg, program)
	if err != nil {
		return nil, err
	}
	res := newResult(rr)
	if tr != nil {
		emitEngineSpans(tr, trace.SpanFromContext(ctx).Context(), cfg.Perf)
	}
	return res, nil
}

// emitEngineSpans converts a run's sampled round slices into finished
// spans parented under the caller's current span, anchoring the
// loop-relative slice clocks to the scheduler's wall-clock loop start.
func emitEngineSpans(tr *trace.Tracer, parent trace.SpanContext, perf *radio.RunPerf) {
	base := perf.LoopStart
	if base.IsZero() {
		return // the scheduler loop never ran
	}
	for _, sl := range perf.Slices {
		tr.Emit(parent, "engine.rounds",
			base.Add(time.Duration(sl.StartNs)), base.Add(time.Duration(sl.EndNs)),
			trace.A("firstRound", sl.FirstRound),
			trace.A("lastRound", sl.LastRound),
			trace.A("rounds", sl.Rounds))
	}
}

// newResult converts a raw simulation result into an MIS result.
func newResult(rr *radio.Result) *Result {
	res := new(Result)
	res.fill(rr)
	return res
}

// fill sets res to the MIS result of rr, reusing res's Status and InMIS
// storage; Energy and DecisionRound alias rr's. Nodes the fault layer
// terminally crashed get StatusCrashed — their program output never
// materialized, so whatever the engine recorded for them is meaningless
// and must not be read as a verdict.
func (res *Result) fill(rr *radio.Result) {
	n := len(rr.Outputs)
	status, inMIS := res.Status, res.InMIS
	if cap(status) < n || cap(inMIS) < n {
		status, inMIS = make([]Status, n), make([]bool, n)
	}
	*res = Result{
		Status:        status[:n],
		InMIS:         inMIS[:n],
		Energy:        rr.Energy,
		DecisionRound: rr.HaltRound,
		Rounds:        rr.Rounds,
		Crashed:       rr.Crashed,
		Faults:        rr.Faults,
	}
	for i, out := range rr.Outputs {
		s := Status(out)
		if rr.Crashed != nil && rr.Crashed[i] {
			s = StatusCrashed
		}
		res.Status[i] = s
		res.InMIS[i] = s == StatusInMIS
		if s == StatusUndecided {
			res.Undecided++
		}
	}
}

// clone returns a deep copy of r, for a caller that keeps a Result handed
// over in reused storage.
func (r *Result) clone() *Result {
	c := *r
	c.Status = slices.Clone(r.Status)
	c.InMIS = slices.Clone(r.InMIS)
	c.Energy = slices.Clone(r.Energy)
	c.DecisionRound = slices.Clone(r.DecisionRound)
	c.Crashed = slices.Clone(r.Crashed)
	if r.Faults != nil {
		f := *r.Faults
		c.Faults = &f
	}
	return &c
}

// MaxEnergy returns the worst-case per-node energy of the run.
func (r *Result) MaxEnergy() uint64 {
	var max uint64
	for _, e := range r.Energy {
		if e > max {
			max = e
		}
	}
	return max
}

// AvgEnergy returns the node-averaged energy of the run.
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

// SetSize returns the number of nodes in the computed set.
func (r *Result) SetSize() int { return graph.SetSize(r.InMIS) }

// CrashCount returns the number of terminally crashed nodes (0 for clean
// runs).
func (r *Result) CrashCount() int {
	c := 0
	for _, dead := range r.Crashed {
		if dead {
			c++
		}
	}
	return c
}

// Check verifies that the run produced a correct MIS of g: every node
// decided, the set is independent, and the set is maximal. A nil error
// means full success. A run with terminally crashed nodes always fails this
// check — a dead node cannot satisfy the MIS conditions of the original
// graph; use CheckSurvivors for the fault-tolerance success criterion.
func (r *Result) Check(g *graph.Graph) error {
	if c := r.CrashCount(); c > 0 {
		return fmt.Errorf("mis: %d nodes crashed (full-graph MIS impossible; see CheckSurvivors)", c)
	}
	if r.Undecided > 0 {
		return fmt.Errorf("mis: %d nodes undecided", r.Undecided)
	}
	return graph.CheckMIS(g, r.InMIS)
}

// CheckSurvivors verifies the fault-tolerance success criterion: restricted
// to the subgraph induced by surviving (non-crashed) nodes, every survivor
// decided, the computed set is independent, and it is maximal — every
// out-of-set survivor has a surviving in-set neighbor. On crash-free runs
// it coincides with Check.
func (r *Result) CheckSurvivors(g *graph.Graph) error {
	for v := 0; v < g.N(); v++ {
		switch r.Status[v] {
		case StatusCrashed:
			// Dead nodes are exempt from every condition.
		case StatusUndecided:
			return fmt.Errorf("mis: surviving node %d undecided", v)
		}
	}
	if k := r.IndependenceViolations(g); k > 0 {
		return fmt.Errorf("mis: %d independence violations among survivors", k)
	}
	if k := r.UncoveredOut(g); k > 0 {
		return fmt.Errorf("mis: %d surviving nodes neither in the set nor covered by a surviving member", k)
	}
	return nil
}

// IndependenceViolations counts edges with both endpoints in the computed
// set — the safety failures a perturbed channel can cause (e.g. a lost or
// jammed "I won" announcement lets two neighbors both join). Crashed nodes
// are never in the set, so the count naturally ranges over survivors.
func (r *Result) IndependenceViolations(g *graph.Graph) int {
	k := 0
	for v := 0; v < g.N(); v++ {
		if !r.InMIS[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if w > v && r.InMIS[w] {
				k++
			}
		}
	}
	return k
}

// UncoveredOut counts surviving nodes that are neither in the computed set
// nor adjacent to a surviving set member — the liveness (maximality)
// failures of a perturbed run. A neighbor that joined the set and then
// terminally crashed does not cover anyone: its slot in the network is dead.
func (r *Result) UncoveredOut(g *graph.Graph) int {
	k := 0
	for v := 0; v < g.N(); v++ {
		if r.InMIS[v] || (r.Crashed != nil && r.Crashed[v]) {
			continue
		}
		covered := false
		for _, w := range g.Neighbors(v) {
			if r.InMIS[w] && (r.Crashed == nil || !r.Crashed[w]) {
				covered = true
				break
			}
		}
		if !covered {
			k++
		}
	}
	return k
}
