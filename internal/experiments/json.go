package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"radiomis/internal/harness"
	"radiomis/internal/telemetry"
	"radiomis/internal/texttable"
)

// SchemaVersion identifies the benchsuite JSON report layout. Bump it on
// any backwards-incompatible change to the types below. The host header
// and per-experiment perf section are additive (omitted when absent), so
// they stay within v1; comparison tools must key on metric points, never
// on perf numbers (scripts/benchdiff.py treats perf drift as warn-only).
const SchemaVersion = "radiomis.benchsuite/v1"

// JSONReport is the machine-readable output of a benchsuite run: the suite
// configuration plus one entry per executed experiment.
type JSONReport struct {
	Schema      string           `json:"schema"`
	Seed        uint64           `json:"seed"`
	Quick       bool             `json:"quick"`
	Host        *JSONHost        `json:"host,omitempty"`
	Experiments []JSONExperiment `json:"experiments"`
}

// JSONHost records the machine and engine-pool configuration a report was
// produced under, so perf sections from different runs can be compared
// with the hardware context in hand. Metric points are deterministic in
// (Seed, Quick) alone and never depend on these fields.
type JSONHost struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numCpu"`
	// Shards is the number of goroutines the scalar round scheduler
	// splits one trial's rounds across: always 1. It keeps the report
	// schema of suites that ran on a sharded scheduler.
	Shards int `json:"poolShards"`
	// Pooled records that trials run on per-worker engine pools (always
	// true for harness batches; recorded so readers need not know that).
	Pooled bool `json:"pooled"`
}

// CaptureHost snapshots the current process's host configuration.
func CaptureHost() *JSONHost {
	return &JSONHost{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Shards:     1,
		Pooled:     true,
	}
}

// JSONExperiment serializes one experiment's report.
type JSONExperiment struct {
	ID         string        `json:"id"`
	Title      string        `json:"title"`
	Claim      string        `json:"claim"`
	Notes      []string      `json:"notes,omitempty"`
	DurationMS int64         `json:"durationMs"`
	Perf       *JSONPerf     `json:"perf,omitempty"`
	Tables     []JSONTable   `json:"tables"`
	Metrics    []MetricPoint `json:"metrics"`
}

// JSONPerf is an experiment's telemetry summary: where the wall-clock
// went, folded from the harness trial-duration histogram. It is
// timing-only — like DurationMS it varies run to run and carries no
// simulation results.
type JSONPerf struct {
	// Trials is the number of completed harness trials across the
	// experiment's sweeps.
	Trials uint64 `json:"trials"`
	// TrialMs summarizes per-trial wall-clock durations in milliseconds.
	TrialMs JSONDurationStats `json:"trialMs"`
}

// JSONDurationStats summarizes a duration histogram in milliseconds.
// Quantiles come from telemetry's log-bucket histogram (≤ 12.5% relative
// error); max is exact.
type JSONDurationStats struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// PerfFromRegistry folds the harness trial-duration histogram collected in
// reg into a perf section. It returns nil when reg is nil or no trials
// were observed, so experiments that never entered the harness simply
// omit the section.
func PerfFromRegistry(reg *telemetry.Registry) *JSONPerf {
	if reg == nil {
		return nil
	}
	h, ok := reg.LookupHistogram(harness.MetricTrialSeconds)
	if !ok {
		return nil
	}
	s := h.Snapshot()
	if s.Count == 0 {
		return nil
	}
	const msPerNs = 1e-6 // histogram observes nanoseconds
	return &JSONPerf{
		Trials: s.Count,
		TrialMs: JSONDurationStats{
			Mean: s.Mean() * msPerNs,
			P50:  s.Quantile(0.50) * msPerNs,
			P90:  s.Quantile(0.90) * msPerNs,
			P99:  s.Quantile(0.99) * msPerNs,
			Max:  float64(s.Max) * msPerNs,
		},
	}
}

// JSONTable serializes a rendered table's cells.
type JSONTable struct {
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// NewJSONReport returns an empty report for the given suite configuration,
// stamped with the current host's configuration.
func NewJSONReport(cfg Config) *JSONReport {
	return &JSONReport{Schema: SchemaVersion, Seed: cfg.Seed, Quick: cfg.Quick, Host: CaptureHost()}
}

// Add appends one experiment's report with its wall-clock duration and
// optional telemetry summary (nil omits the perf section).
func (jr *JSONReport) Add(rep *Report, elapsed time.Duration, perf *JSONPerf) {
	exp := JSONExperiment{
		ID:         rep.ID,
		Title:      rep.Title,
		Claim:      rep.Claim,
		Notes:      rep.Notes,
		DurationMS: elapsed.Milliseconds(),
		Perf:       perf,
		Tables:     make([]JSONTable, 0, len(rep.Tables)),
		Metrics:    rep.Metrics,
	}
	if exp.Metrics == nil {
		exp.Metrics = []MetricPoint{}
	}
	for _, t := range rep.Tables {
		exp.Tables = append(exp.Tables, jsonTable(t))
	}
	jr.Experiments = append(jr.Experiments, exp)
}

func jsonTable(t *texttable.Table) JSONTable {
	jt := JSONTable{Header: t.Header(), Rows: t.Rows()}
	if jt.Header == nil {
		jt.Header = []string{}
	}
	if jt.Rows == nil {
		jt.Rows = [][]string{}
	}
	return jt
}

// Write serializes the report as indented JSON.
func (jr *JSONReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jr)
}
