// Package server implements radiomisd's simulation-as-a-service layer: an
// HTTP JSON API that accepts simulation jobs (whole reproduction
// experiments or single-algorithm runs), executes them on a bounded worker
// pool with backpressure, deduplicates identical in-flight submissions
// (single-flight), caches results in an LRU keyed by the canonical request
// hash, and streams per-job progress as JSON lines built on internal/obs.
//
// The wire schema is versioned as SchemaVersion ("radiomis.server/v1") and
// documented in docs/api.md; experiment results embed the
// "radiomis.benchsuite/v1" experiment records, so a job's metrics are
// byte-comparable with a `benchsuite -json` run at the same seed.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"radiomis/internal/experiments"
	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/mis"
	"radiomis/internal/stats"
)

// SchemaVersion identifies the radiomisd wire format. Bump it on any
// backwards-incompatible change to the types below.
const SchemaVersion = "radiomis.server/v1"

// Job kinds accepted by POST /v1/jobs.
const (
	// KindExperiment runs one registered reproduction experiment (E1–E15)
	// exactly as cmd/benchsuite would.
	KindExperiment = "experiment"
	// KindSolve runs one MIS algorithm repeatedly on a generated graph
	// family and reports aggregate metrics.
	KindSolve = "solve"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobRequest is the body of POST /v1/jobs. Exactly the fields relevant to
// the requested kind are honored; Normalize canonicalizes the rest so that
// equivalent requests hash to the same cache key.
type JobRequest struct {
	// Kind selects the job type: "experiment" or "solve".
	Kind string `json:"kind"`

	// Experiment is the experiment ID (e.g. "E2"); experiment jobs only.
	Experiment string `json:"experiment,omitempty"`
	// Quick runs the experiment at smoke-test scale.
	Quick bool `json:"quick,omitempty"`

	// Algorithm names the solver ("cd", "nocd", "beep", "lowdegree",
	// "naive-cd", "naive-nocd", "unknown-delta"); solve jobs only.
	Algorithm string `json:"algorithm,omitempty"`
	// Family is the generated graph family (default "gnp").
	Family string `json:"family,omitempty"`
	// N is the approximate graph size; required for solve jobs.
	N int `json:"n,omitempty"`
	// Trials is the number of repeated runs (default 1). Trial i uses the
	// derived seed rng.Mix(Seed, i), exactly like the benchmark harness.
	Trials int `json:"trials,omitempty"`
	// Faults optionally perturbs solve jobs with a fault profile (message
	// loss, noise, jamming, crashes, wake staggering — see internal/faults).
	// nil and the zero profile both mean the clean channel and normalize
	// identically, so legacy requests keep their historical cache keys.
	Faults *faults.Profile `json:"faults,omitempty"`

	// Engine selects the trial execution engine for solve jobs: "auto"
	// (default, also the meaning of the empty string), "scalar", or
	// "lockstep". Auto runs eligible jobs — a lockstep-capable algorithm, a
	// seed-invariant graph family, and no fault profile — on the
	// bit-parallel lockstep engine, batching up to 64 trials per engine
	// pass, and everything else on the scalar engine; per-trial results are
	// bit-identical either way. "lockstep" forces the batch engine and is
	// rejected at submit time when the job is ineligible. "auto" normalizes
	// to the empty string, so legacy requests keep their cache keys.
	Engine string `json:"engine,omitempty"`

	// TrialOffset shifts the trial-index stream of a solve job: trial i of
	// this job is globally trial TrialOffset+i, with seed
	// rng.Mix(Seed, TrialOffset+i). A job with TrialOffset k and Trials m
	// therefore reruns exactly trials [k, k+m) of any larger job at the
	// same seed. Zero (the default) is the historical behavior and is
	// omitted from the canonical encoding, so legacy cache keys are
	// unchanged.
	TrialOffset int `json:"trialOffset,omitempty"`
	// Rows asks a solve job to return per-trial metric rows, indexed by
	// global trial, alongside the aggregate summaries.
	Rows bool `json:"rows,omitempty"`

	// Seed makes the job reproducible (and is part of the cache key).
	Seed uint64 `json:"seed"`
}

// Normalize validates the request and rewrites it into canonical form:
// experiment IDs get their registry case, defaults are filled in, and
// fields irrelevant to the kind are cleared. Two requests describing the
// same computation normalize to identical structs (and thus one Key).
func (r *JobRequest) Normalize() error {
	switch r.Kind {
	case KindExperiment:
		def, err := experiments.Lookup(r.Experiment)
		if err != nil {
			return err
		}
		r.Experiment = def.ID
		r.Algorithm, r.Family, r.N, r.Trials, r.Faults = "", "", 0, 0, nil
		r.TrialOffset, r.Rows, r.Engine = 0, false, ""
	case KindSolve:
		if !mis.KnownAlgorithm(r.Algorithm) {
			return fmt.Errorf("unknown algorithm %q (known: %s; see GET /v1/algorithms)",
				r.Algorithm, strings.Join(mis.Algorithms(), ", "))
		}
		if r.Family == "" {
			r.Family = graph.FamilyGNP.String()
		}
		fam, err := graph.ParseFamily(r.Family)
		if err != nil {
			return err
		}
		if r.N < 1 {
			return fmt.Errorf("n = %d, want ≥ 1", r.N)
		}
		if r.Trials < 1 {
			r.Trials = 1
		}
		if r.TrialOffset < 0 {
			return fmt.Errorf("trialOffset = %d, want ≥ 0", r.TrialOffset)
		}
		if r.Faults != nil {
			if err := r.Faults.Validate(); err != nil {
				return err
			}
			if r.Faults.IsZero() {
				r.Faults = nil // canonical form: clean channel has no profile
			}
		}
		switch r.Engine {
		case "", mis.EngineAuto:
			r.Engine = "" // canonical form: auto is empty, preserving legacy cache keys
		case mis.EngineScalar:
		case mis.EngineLockstep:
			// Reject ineligible forced-lockstep jobs at submit time, with the
			// reason, rather than queueing a job that can only fail.
			switch {
			case !mis.LockstepCapable(r.Algorithm):
				return fmt.Errorf("engine %q: algorithm %q has no lockstep lane program (see GET /v1/algorithms)", r.Engine, r.Algorithm)
			case !fam.SeedInvariant():
				return fmt.Errorf("engine %q: family %q is not seed-invariant, so trials cannot share one graph", r.Engine, r.Family)
			case r.Faults != nil:
				return fmt.Errorf("engine %q: fault injection requires the scalar engine", r.Engine)
			}
		default:
			return fmt.Errorf("unknown engine %q (want %q, %q, or %q)", r.Engine, mis.EngineAuto, mis.EngineScalar, mis.EngineLockstep)
		}
		r.Experiment, r.Quick = "", false
	default:
		return fmt.Errorf("unknown kind %q (want %q or %q)", r.Kind, KindExperiment, KindSolve)
	}
	return nil
}

// ResolveEngine reports the trial engine a normalized solve request runs
// on: lockstep when the job is eligible (lane-capable algorithm,
// seed-invariant family, no faults) and the request does not force
// scalar; scalar otherwise.
func ResolveEngine(req JobRequest) string {
	fam, err := graph.ParseFamily(req.Family)
	if err != nil {
		return mis.EngineScalar
	}
	if req.Engine != mis.EngineScalar && req.Faults == nil &&
		mis.LockstepCapable(req.Algorithm) && fam.SeedInvariant() {
		return mis.EngineLockstep
	}
	return mis.EngineScalar
}

// Key returns the canonical cache key: the hex SHA-256 of the normalized
// request's JSON encoding (struct field order is fixed, so the encoding is
// canonical). Call Normalize first.
func (r JobRequest) Key() string {
	b, err := json.Marshal(r)
	if err != nil {
		// A JobRequest of plain scalars cannot fail to marshal.
		panic(fmt.Sprintf("server: marshal job request: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// JobStatus is the wire representation of a job, returned by the submit,
// status, and cancel endpoints.
type JobStatus struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	// TraceID is the W3C trace the job's spans belong to — the inbound
	// request's traceparent trace when one was supplied, else a fresh one.
	// Present only when the daemon runs with tracing enabled; grep it in
	// daemon logs or look it up under /debug/traces.
	TraceID     string     `json:"traceId,omitempty"`
	Request     JobRequest `json:"request"`
	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
	// QueueWaitMs is the time the job spent queued before it started
	// (present once the job has started).
	QueueWaitMs *float64 `json:"queueWaitMs,omitempty"`
	// RunMs is the job's execution wall time: final for terminal jobs,
	// elapsed-so-far for running ones (present once the job has started).
	RunMs  *float64   `json:"runMs,omitempty"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// JobResult is a completed job's payload; exactly one field is set,
// matching the request kind.
type JobResult struct {
	// Experiment is the benchsuite-schema record for experiment jobs —
	// identical (modulo durationMs) to the corresponding entry of
	// `benchsuite -json` at the same seed and scale.
	Experiment *experiments.JSONExperiment `json:"experiment,omitempty"`
	// Solve carries aggregate metrics for single-algorithm jobs.
	Solve *SolveResult `json:"solve,omitempty"`
}

// SolveResult summarizes a repeated single-algorithm run.
type SolveResult struct {
	Algorithm string `json:"algorithm"`
	Family    string `json:"family"`
	N         int    `json:"n"`
	Trials    int    `json:"trials"`
	// Faults echoes the fault profile the runs were perturbed with; absent
	// for clean runs. Faulty results carry the extra robustness metrics
	// (violations, uncovered, crashed, restarts) alongside the usual ones.
	Faults *faults.Profile `json:"faults,omitempty"`
	// Engine reports the trial engine the job actually ran on ("scalar" or
	// "lockstep") — the resolution of the request's engine field, which may
	// have been "auto".
	Engine  string                   `json:"engine,omitempty"`
	Metrics map[string]stats.Summary `json:"metrics"`
	// Rows holds the per-trial metric rows, in global trial order, when
	// the request set Rows.
	Rows []TrialRow `json:"rows,omitempty"`
}

// TrialRow is one trial's raw measurements.
type TrialRow struct {
	// Trial is the global trial index (TrialOffset + local index).
	Trial int `json:"trial"`
	// Seed is the trial's derived seed, rng.Mix(request seed, Trial).
	Seed uint64 `json:"seed"`
	// Metrics are the trial's named measurements.
	Metrics map[string]float64 `json:"metrics"`
}

// JobList is the response of GET /v1/jobs.
type JobList struct {
	Schema string       `json:"schema"`
	Jobs   []*JobStatus `json:"jobs"`
}

// AlgorithmList is the response of GET /v1/algorithms: the discovery
// document for solve jobs — every registered algorithm (the accepted
// values of JobRequest.Algorithm) and every tunable parameter knob,
// straight from the internal/mis registry.
type AlgorithmList struct {
	Schema     string              `json:"schema"`
	Algorithms []mis.AlgorithmInfo `json:"algorithms"`
	Params     []mis.ParamKnob     `json:"params"`
	// Engines lists the accepted values of JobRequest.Engine. Whether
	// "lockstep" applies to a given algorithm is the per-algorithm
	// "lockstep" capability flag above.
	Engines []string `json:"engines"`
}

// AlgorithmCatalog returns the current AlgorithmList.
func AlgorithmCatalog() AlgorithmList {
	return AlgorithmList{
		Schema:     SchemaVersion,
		Algorithms: mis.Infos(),
		Params:     mis.ParamKnobs(),
		Engines:    []string{"auto", mis.EngineScalar, mis.EngineLockstep},
	}
}

// Event shapes streamed by GET /v1/jobs/{id}/events. Every line is one
// self-contained JSON object with an "ev" discriminator ("state",
// "progress", "perf", or "heartbeat"), mirroring the internal/obs JSONL
// convention. When the daemon traces, every per-job event also carries
// the job's traceId, so a single grep correlates the stream with logs
// and spans.
type stateEvent struct {
	Ev      string `json:"ev"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	TraceID string `json:"traceId,omitempty"`
}

type progressEvent struct {
	Ev      string  `json:"ev"`
	Stage   string  `json:"stage"`
	Done    int     `json:"done"`
	Total   int     `json:"total"`
	X       float64 `json:"x,omitempty"`
	TraceID string  `json:"traceId,omitempty"`
}

// perfEvent is emitted once per executed job, immediately before its
// terminal state event: where the job's wall-clock went, split into queue
// wait and execution. Jobs served from cache or canceled before starting
// never ran, so they emit no perf event.
type perfEvent struct {
	Ev          string  `json:"ev"`
	QueueWaitMs float64 `json:"queueWaitMs"`
	RunMs       float64 `json:"runMs"`
	TraceID     string  `json:"traceId,omitempty"`
}

// scalarFallbackReason explains why a normalized solve request resolved to
// the scalar engine, for the reason-labeled fallback counter. Call only
// when ResolveEngine returned scalar.
func scalarFallbackReason(req JobRequest) string {
	switch {
	case req.Engine == mis.EngineScalar:
		return "forced"
	case req.Faults != nil:
		return "faults"
	case !mis.LockstepCapable(req.Algorithm):
		return "algorithm"
	default:
		return "family"
	}
}

// heartbeatEvent is a keep-alive line written to idle event streams every
// Options.EventHeartbeat, so proxies and clients can distinguish a
// long-running job from a dead connection. It is still one self-contained
// JSON object, so line-oriented consumers parse streams with heartbeats
// unchanged.
type heartbeatEvent struct {
	Ev string `json:"ev"` // always "heartbeat"
}

// durationMs converts a duration to fractional milliseconds for the wire.
func durationMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
