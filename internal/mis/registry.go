package mis

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/radio"
)

// This file is the algorithm registry: the single place where every MIS
// algorithm is defined — its canonical wire name (shared by the radiomis
// CLI, the radiomisd job schema, and the library facade), its collision
// model, its program builder, and its human-readable description. All
// entry points resolve through Run below: SolveWithFaults is a one-line
// wrapper, and the daemon's discovery endpoint serializes Infos.

// algoSpec is one registry entry. Exactly one of program (a radio-model
// distributed algorithm) and sequential (a centralized reference algorithm
// with no rounds, no energy, and no channel to perturb) is set. lane, when
// set, caches the program's bit-parallel lane twin for the lockstep engine
// (see lockstep.go); algorithms without one always run on the scalar
// engine.
type algoSpec struct {
	model       radio.Model
	program     func(Params) radio.Program
	lane        *laneCache
	sequential  func(g *graph.Graph, p Params, seed uint64) *Result
	description string
}

// ModelSequential is the Model string reported for registry entries that
// run centrally rather than on the simulated radio channel.
const ModelSequential = "sequential"

// algoSpecs maps canonical algorithm names to their specs.
var algoSpecs = map[string]algoSpec{
	"cd": {model: radio.ModelCD, program: CDProgram, lane: newLaneCache(newCDLane),
		description: "Algorithm 1: energy-optimal MIS with collision detection (O(log n) energy, O(log² n) rounds)"},
	"beep": {model: radio.ModelBeep, program: CDProgram, lane: newLaneCache(newCDLane),
		description: "Algorithm 1 unchanged in the beeping model (§3.1); same energy and rounds as cd"},
	"nocd": {model: radio.ModelNoCD, program: NoCDProgram,
		description: "Algorithms 2+3: energy-efficient MIS without collision detection (O(log² n log log n) energy)"},
	"lowdegree": {model: radio.ModelNoCD, program: LowDegreeProgram,
		description: "round-improved Davies-style MIS of §4.2 (O(log² n log Δ) rounds and energy); best-known-prior baseline"},
	"naive-cd": {model: radio.ModelCD, program: NaiveCDProgram, lane: newLaneCache(newNaiveCDLane),
		description: "straightforward Luby baseline in the CD model (O(log² n) energy)"},
	"naive-nocd": {model: radio.ModelNoCD, program: NaiveNoCDProgram,
		description: "Algorithm 1 simulated round-by-round with traditional Decay backoff (O(log⁴ n) energy)"},
	"unknown-delta": {model: radio.ModelNoCD, program: UnknownDeltaProgram,
		description: "the §1.1 wrapper for unknown maximum degree, doubling the Δ estimate per attempt"},
	"linear": {sequential: runLinear,
		description: "linear-time sequential min-degree greedy MIS (bucket queue, O(n+m) work, no radio rounds); the batch scheduler's default layer algorithm"},
}

// Algorithms returns the canonical algorithm names, sorted — the accepted
// values of Run's name argument.
func Algorithms() []string {
	names := make([]string, 0, len(algoSpecs))
	for name := range algoSpecs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// KnownAlgorithm reports whether name is a registered algorithm.
func KnownAlgorithm(name string) bool {
	_, ok := algoSpecs[name]
	return ok
}

// AlgorithmInfo describes one registered algorithm, for discovery surfaces
// (the daemon's /v1/algorithms endpoint, CLI help).
type AlgorithmInfo struct {
	// Name is the canonical wire name (Run's name argument).
	Name string `json:"name"`
	// Model is the collision model the algorithm runs under ("cd",
	// "no-cd", or "beep").
	Model string `json:"model"`
	// Description is a one-line human-readable summary.
	Description string `json:"description"`
	// Lockstep reports whether the algorithm has a bit-parallel lane
	// program, i.e. whether multi-trial batches of it can run on the
	// lockstep engine (see RunMany).
	Lockstep bool `json:"lockstep"`
}

// Describe returns the registry metadata of the named algorithm.
func Describe(name string) (AlgorithmInfo, bool) {
	spec, ok := algoSpecs[name]
	if !ok {
		return AlgorithmInfo{}, false
	}
	model := ModelSequential
	if spec.sequential == nil {
		model = spec.model.String()
	}
	return AlgorithmInfo{Name: name, Model: model, Description: spec.description, Lockstep: spec.lane != nil}, true
}

// Infos returns the metadata of every registered algorithm, sorted by name.
func Infos() []AlgorithmInfo {
	infos := make([]AlgorithmInfo, 0, len(algoSpecs))
	for _, name := range Algorithms() {
		info, _ := Describe(name)
		infos = append(infos, info)
	}
	return infos
}

// ParamKnob describes one tunable field of Params, for discovery surfaces.
type ParamKnob struct {
	// Name is the field's name in Params (and its JSON key in the daemon's
	// job schema, lower-cased).
	Name string `json:"name"`
	// Type is the Go type of the field.
	Type string `json:"type"`
	// Description is a one-line summary of what the knob scales.
	Description string `json:"description"`
}

// ParamKnobs returns a description of every tunable Params field, in
// declaration order. The knobs are shared by all registered algorithms
// (each algorithm reads the subset relevant to it).
func ParamKnobs() []ParamKnob {
	return []ParamKnob{
		{"N", "int", "shared upper bound on the network size; all logarithmic quantities derive from it"},
		{"Delta", "int", "shared upper bound on the maximum degree"},
		{"Beta", "float64", "competition rank length scale: B = ⌈Beta·log₂ N⌉ bits"},
		{"C", "float64", "Luby phase count scale: L = ⌈C·log₂ N⌉"},
		{"CPrime", "float64", "no-CD backoff repetition scale: k = ⌈CPrime·log₂ N⌉"},
		{"Kappa", "float64", "committed-subgraph degree estimate scale: d̂ = ⌈Kappa·log₂ N⌉"},
		{"GhaffariPhases", "float64", "LowDegreeMIS phase count scale: P = ⌈GhaffariPhases·log₂ N⌉"},
		{"ExchangeReps", "float64", "LowDegreeMIS per-phase Decay iteration scale: kx = ⌈ExchangeReps·log₂ N⌉"},
		{"EnergyCap", "uint64", "absolute awake-round cap per node (0 disables); the paper's energy-threshold rule"},
		{"Ablate", "mis.Ablations", "toggles disabling individual §5.1 optimizations for the ablation experiments"},
	}
}

// RunOpts carries the optional knobs of a Run call. The zero value is a
// clean, unbounded, unobserved run.
type RunOpts struct {
	// Seed makes the run deterministic: equal (graph, params, seed) yield
	// bit-for-bit identical results.
	Seed uint64
	// Ctx, when non-nil, bounds the simulation: cancellation aborts it at
	// the next round boundary. A context carrying a radio.Pool (see
	// radio.WithPool) additionally makes the run reuse the pool's engine
	// workers and buffers.
	Ctx context.Context
	// Faults perturbs the run with the given fault profile. The zero
	// profile is the clean model and is bit-for-bit identical to not
	// setting it.
	Faults faults.Profile
	// Observer, when non-nil, receives the engine's per-round reception
	// statistics and halt events (see radio.Observer).
	Observer radio.Observer
}

// Run executes the named registered algorithm on g and returns the MIS
// result. It is the single execution path behind every Solve* entry point:
// the registry resolves the algorithm, params and fault profile are
// validated once, and the simulation runs with whatever opts carries.
func Run(name string, g *graph.Graph, p Params, opts RunOpts) (*Result, error) {
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
	if spec.sequential != nil {
		// Sequential algorithms run centrally: there is no channel to
		// perturb and no per-round stream to observe, so a fault profile is
		// a caller error while an Observer is silently unused.
		if !opts.Faults.IsZero() {
			return nil, fmt.Errorf("mis: %s is a sequential algorithm; fault injection applies only to radio runs", name)
		}
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("mis: %s run: %w", name, err)
			}
		}
		return spec.sequential(g, p, opts.Seed), nil
	}
	res, err := runProgramObserved(opts.Ctx, g, spec.model, opts.Seed, opts.Faults, opts.Observer, spec.program(p))
	if err != nil {
		return nil, fmt.Errorf("mis: %s run: %w", name, err)
	}
	return res, nil
}
