// Package radiomis is an implementation of "Energy-Efficient Maximal
// Independent Sets in Radio Networks" (Banasik, Dani, Dufoulon, Gupta,
// Hayes, Pandurangan — PODC 2025): distributed MIS algorithms for
// synchronous radio networks under the sleeping energy model, together
// with the radio-network simulator, the backoff primitives, the baselines
// the paper compares against, and the Theorem 1 lower-bound apparatus.
//
// The package is a facade over the internal implementation; it is all a
// typical user needs. Every algorithm runs through one entry point, Solve,
// which takes the graph and a Spec naming the algorithm and carrying the
// optional knobs (seed, context, fault profile, observer):
//
//	g := radiomis.GNP(1024, 8.0/1024, 7)           // arbitrary topology
//	p := radiomis.DefaultParams(g.N(), g.MaxDegree())
//	res, err := radiomis.Solve(g, radiomis.Spec{
//		Algorithm: "cd",                            // Algorithm 1
//		Params:    p,
//		Seed:      42,
//	})
//	if err != nil { ... }
//	fmt.Println(res.MaxEnergy(), res.Rounds)        // O(log n), O(log² n)
//	if err := res.Check(g); err != nil { ... }      // verify the MIS
//
// Algorithms() lists the accepted Algorithm names; AlgorithmInfos adds the
// collision model and a description of each. The registered names:
//
//   - "cd" / "beep" — Algorithm 1 (CD model, energy-optimal O(log n);
//     identical program in the beeping model).
//   - "nocd" — Algorithms 2+3 (no-CD model, O(log² n log log n) energy).
//   - "lowdegree" — the Davies-style §4.2 baseline (O(log² n log Δ)
//     rounds and energy).
//   - "naive-cd" / "naive-nocd" — the straightforward baselines the
//     paper's algorithms improve on.
//   - "unknown-delta" — the §1.1 extension for unknown maximum degree.
//
// Multi-trial batches go through SolveMany, the canonical batch entry
// point: it takes one seed per trial and routes eligible batches (see
// LockstepCapable) through the bit-parallel lockstep engine, which runs up
// to 64 trials per engine pass at a fraction of the per-trial cost. Every
// trial's result is bit-identical to the corresponding single-trial Solve.
//
// All runs are deterministic in (graph, params, seed).
package radiomis

import (
	"context"
	"math/rand"

	"radiomis/internal/backbone"
	"radiomis/internal/congest"
	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/leader"
	"radiomis/internal/mis"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
	"radiomis/internal/schedule"
)

// Re-exported core types. Graph is a simple undirected graph on vertices
// 0..n-1; Params carries the shared knowledge (n and Δ bounds) and the
// algorithm constants; Result is a run's outcome with per-node statuses
// and energies.
type (
	// Graph is an undirected radio network topology.
	Graph = graph.Graph
	// Params configures the algorithms (shared bounds and constants).
	Params = mis.Params
	// Result is a distributed MIS run's outcome.
	Result = mis.Result
	// Status is a node's final verdict.
	Status = mis.Status
)

// Node verdicts. StatusCrashed is only reachable under a Spec with crash
// faults enabled.
const (
	StatusUndecided = mis.StatusUndecided
	StatusInMIS     = mis.StatusInMIS
	StatusOutMIS    = mis.StatusOutMIS
	StatusCrashed   = mis.StatusCrashed
)

// Optional-knob types used by Spec.
type (
	// FaultProfile perturbs a run's radio channel (message loss, noise,
	// jamming, node crashes). The zero value is the clean model.
	FaultProfile = faults.Profile
	// Observer receives per-round engine statistics and halt events.
	Observer = radio.Observer
	// AlgorithmInfo describes one registered algorithm.
	AlgorithmInfo = mis.AlgorithmInfo
	// ParamKnob describes one tunable Params field.
	ParamKnob = mis.ParamKnob
)

// Spec names the algorithm of a Solve call and carries its optional knobs.
// The zero values of everything but Algorithm and Params give a clean,
// unbounded, unobserved run.
type Spec struct {
	// Algorithm is the registered algorithm name (see Algorithms).
	Algorithm string
	// Params configures the algorithm (see DefaultParams / PaperParams).
	Params Params
	// Seed makes the run deterministic: equal (graph, params, seed) yield
	// bit-for-bit identical results.
	Seed uint64
	// Ctx, when non-nil, bounds the run: cancellation aborts the
	// simulation at the next round boundary.
	Ctx context.Context
	// Faults perturbs the run with a fault profile; the zero profile is
	// bit-for-bit identical to a clean run.
	Faults FaultProfile
	// Observer, when non-nil, receives per-round statistics and halt
	// events as the simulation progresses.
	Observer Observer
}

// Solve runs the algorithm named by spec on g. It is the single-trial
// entry point behind every per-algorithm Solve* convenience;
// an unknown spec.Algorithm yields an error listing the registered names.
func Solve(g *Graph, spec Spec) (*Result, error) {
	return mis.Run(spec.Algorithm, g, spec.Params, mis.RunOpts{
		Seed:     spec.Seed,
		Ctx:      spec.Ctx,
		Faults:   spec.Faults,
		Observer: spec.Observer,
	})
}

// Engine names accepted by ManySpec.Engine. EngineAuto (the empty
// string's alias) picks the bit-parallel lockstep engine whenever the
// batch is eligible — a clean, unobserved batch of a LockstepCapable
// algorithm — and the scalar engine otherwise; the explicit names force
// one engine, with EngineLockstep erroring when the batch cannot run on
// it.
const (
	EngineAuto     = mis.EngineAuto
	EngineScalar   = mis.EngineScalar
	EngineLockstep = mis.EngineLockstep
)

// ManySpec configures a SolveMany call: the same algorithm spec as Solve
// plus one seed per trial and an optional engine selector.
type ManySpec struct {
	// Spec carries the algorithm name and the per-trial knobs. Spec.Seed
	// is ignored — the per-trial seeds come from Seeds.
	Spec
	// Seeds holds one trial seed per requested trial, in result order.
	Seeds []uint64
	// Engine selects the execution engine (see EngineAuto); the zero
	// value is EngineAuto.
	Engine string
}

// SolveMany runs len(spec.Seeds) independent trials of the algorithm named
// by spec on g — the canonical multi-trial entry point (harness.Repeat and
// the daemon's repeat jobs resolve here). Results are in seed order, each
// bit-identical to the single-trial Solve with the same seed regardless of
// the engine used; the first failing trial's error aborts the batch.
//
// Under EngineAuto, clean unobserved batches of LockstepCapable algorithms
// run on the bit-parallel lockstep engine — up to 64 trials advanced in
// lockstep as bit-lanes of one word per node — and everything else runs on
// the scalar engine one trial at a time.
func SolveMany(g *Graph, spec ManySpec) ([]*Result, error) {
	return mis.RunMany(spec.Algorithm, g, spec.Params, mis.ManyOpts{
		Seeds:    spec.Seeds,
		Ctx:      spec.Ctx,
		Faults:   spec.Faults,
		Observer: spec.Observer,
		Engine:   spec.Engine,
	})
}

// LockstepCapable reports whether the named algorithm has a bit-parallel
// lane program, i.e. whether SolveMany batches of it run on the lockstep
// engine under EngineAuto.
func LockstepCapable(name string) bool { return mis.LockstepCapable(name) }

// TrialSeed derives trial i's seed from a base seed — the exact schedule
// the benchmark harness and the daemon's repeat jobs use (a SplitMix64
// mix, so nearby trial indices give statistically independent streams).
// Feed it to ManySpec.Seeds to reproduce any harness trial exactly.
func TrialSeed(seed, i uint64) uint64 { return rng.Mix(seed, i) }

// Algorithms returns the registered algorithm names, sorted — the accepted
// values of Spec.Algorithm.
func Algorithms() []string { return mis.Algorithms() }

// AlgorithmInfos returns the name, collision model, and description of
// every registered algorithm, sorted by name.
func AlgorithmInfos() []AlgorithmInfo { return mis.Infos() }

// ParamKnobs describes every tunable Params field.
func ParamKnobs() []ParamKnob { return mis.ParamKnobs() }

// NewGraph returns an edgeless graph on n vertices; add edges with
// (*Graph).AddEdge.
func NewGraph(n int) *Graph { return graph.New(n) }

// Complete returns the clique K_n.
func Complete(n int) *Graph { return graph.Complete(n) }

// Cycle returns the n-cycle.
func Cycle(n int) *Graph { return graph.Cycle(n) }

// Path returns the n-vertex path.
func Path(n int) *Graph { return graph.Path(n) }

// Star returns the star with center 0 and n-1 leaves.
func Star(n int) *Graph { return graph.Star(n) }

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph { return graph.Grid2D(rows, cols) }

// GNP returns an Erdős–Rényi G(n, p) graph drawn deterministically from
// seed.
func GNP(n int, p float64, seed uint64) *Graph {
	return graph.GNP(n, p, rng.New(seed))
}

// UnitDisk places n nodes uniformly in the unit square, connecting pairs
// within radius — the classical ad-hoc sensor network. It returns the
// graph and the node coordinates.
func UnitDisk(n int, radius float64, seed uint64) (*Graph, [][2]float64) {
	return graph.UnitDisk(n, radius, rng.New(seed))
}

// RandomTree returns a uniformly random labeled tree on n vertices.
func RandomTree(n int, seed uint64) *Graph {
	return graph.RandomTree(n, rng.New(seed))
}

// DefaultParams returns practical algorithm constants for a network of at
// most n nodes with maximum degree at most delta.
func DefaultParams(n, delta int) Params { return mis.ParamsDefault(n, delta) }

// PaperParams returns the conservative constants for which the paper
// proves its 1 − 1/poly(n) guarantees (slow; see Params documentation).
func PaperParams(n, delta int) Params { return mis.ParamsPaper(n, delta) }

// SolveLinear runs the linear-time sequential min-degree greedy MIS — the
// centralized O(n+m) baseline with no radio rounds, and the batch
// scheduler's default per-layer algorithm.
func SolveLinear(g *Graph, p Params, seed uint64) (*Result, error) {
	return Solve(g, Spec{Algorithm: "linear", Params: p, Seed: seed})
}

// Batch scheduling types re-exported from the schedule subsystem: iterated
// MIS peels a conflict graph into independent execution batches.
type (
	// BatchOptions selects the per-layer algorithm and seed of a SolveBatch
	// call.
	BatchOptions = schedule.Options
	// BatchPlan is a computed batch schedule (an ordered partition into
	// independent sets).
	BatchPlan = schedule.Plan
	// BatchStats summarizes a plan's batch quality.
	BatchStats = schedule.Stats
	// BatchPlanner computes plans with amortized scratch — zero
	// steady-state allocations on the default algorithm.
	BatchPlanner = schedule.Planner
)

// SolveBatch peels conflict graph g into independent execution batches by
// iterated MIS: batch i is a maximal independent set of the graph left
// after removing batches 0..i-1, so each batch can execute concurrently
// and the batches run in sequence. The returned plan is caller-owned and
// verified-correct by construction (Plan.Validate re-checks it if wanted).
// For sustained many-small-graphs serving, use NewBatchPlanner.
func SolveBatch(g *Graph, opts BatchOptions) (*BatchPlan, error) {
	return schedule.Batches(g, opts)
}

// NewBatchPlanner returns an amortized batch planner: a warm planner
// computes plan after plan with zero steady-state allocations on the
// default (linear) per-layer algorithm. Not safe for concurrent use; the
// returned plan is valid until the planner's next call.
func NewBatchPlanner() *BatchPlanner { return schedule.NewPlanner() }

// CongestResult is the outcome of a sleeping-CONGEST run (§1.4's
// collision-free contrast model).
type CongestResult = congest.LubyResult

// SolveCongestLuby runs classical Luby MIS in the SLEEPING-CONGEST model
// (§1.4): collision-free message passing with the sleeping energy measure.
// Its awake complexity — O(log n) worst case, O(1) node-averaged — is the
// baseline the radio model's energy results are contrasted against.
func SolveCongestLuby(g *Graph, seed uint64) (*CongestResult, error) {
	return congest.SolveLuby(g, seed)
}

// Backbone types re-exported for the application layer (§1's motivating
// use of an MIS: the communication backbone).
type (
	// Backbone is the MIS-derived cluster/CDS structure.
	Backbone = backbone.Backbone
	// Coloring is a distance-2 TDMA coloring of backbone members.
	Coloring = backbone.Coloring
	// BroadcastResult is the outcome of a network-wide broadcast.
	BroadcastResult = backbone.BroadcastResult
)

// BuildBackbone constructs the clusterhead/connector backbone (a connected
// dominating set) from a maximal independent set of g.
func BuildBackbone(g *Graph, inMIS []bool) (*Backbone, error) {
	return backbone.Build(g, inMIS)
}

// ColorBackbone distance-2 colors the backbone members, yielding a
// collision-free TDMA schedule.
func ColorBackbone(g *Graph, b *Backbone) *Coloring {
	return backbone.ColorBackbone(g, b)
}

// Broadcast floods payload from source over the backbone's collision-free
// schedule in the no-CD radio model.
func Broadcast(g *Graph, b *Backbone, c *Coloring, source int, payload uint64, maxFrames int, seed uint64) (*BroadcastResult, error) {
	return backbone.Broadcast(g, b, c, source, payload, maxFrames, seed)
}

// NaiveFlood is the always-awake flooding baseline Broadcast is measured
// against.
func NaiveFlood(g *Graph, source int, payload uint64, ttl int, seed uint64) (*BroadcastResult, error) {
	return backbone.NaiveFlood(g, source, payload, ttl, seed)
}

// CoordinatorResult is the outcome of a backbone coordinator election.
type CoordinatorResult = backbone.CoordinatorResult

// ElectCoordinator elects one coordinator per connected component by
// max-rank flooding over the backbone's TDMA schedule — the multi-hop
// leader election the MIS backbone enables.
func ElectCoordinator(g *Graph, b *Backbone, c *Coloring, frames int, seed uint64) (*CoordinatorResult, error) {
	return backbone.ElectCoordinator(g, b, c, frames, seed)
}

// LeaderResult is the outcome of a single-hop leader election.
type LeaderResult = leader.Result

// ElectLeader runs energy-efficient leader election on a single-hop radio
// network of n ≥ 2 nodes in the CD model (O(log n) energy and rounds) —
// the companion primitive from the literature the sleeping energy model
// originated in.
func ElectLeader(n int, seed uint64) (*LeaderResult, error) {
	return leader.Elect(n, seed)
}

// CheckMIS verifies that the set (inSet[v] ⇔ v ∈ S) is a maximal
// independent set of g, returning a descriptive error otherwise.
func CheckMIS(g *Graph, inSet []bool) error { return graph.CheckMIS(g, inSet) }

// GreedyMIS returns the deterministic sequential reference MIS.
func GreedyMIS(g *Graph) []bool { return graph.GreedyMIS(g) }

// LubyMIS runs the classical centralized Luby algorithm as a reference,
// returning the computed MIS.
func LubyMIS(g *Graph, seed uint64) []bool {
	set, _ := graph.LubySequential(g, rand.New(rand.NewSource(int64(seed))))
	return set
}
