package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"radiomis/internal/experiments"
)

func TestRunSelectedQuick(t *testing.T) {
	if err := run(context.Background(), []string{"-quick", "-e", "E4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"-e", "E99"}, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestJSONReportSchema runs a quick subset of the suite with -json and
// checks the emitted report against the stable schema: typed round-trip,
// schema version, and per-experiment metric summaries.
func TestJSONReportSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	err := run(context.Background(), []string{"-quick", "-seed", "7", "-e", "E2,E8", "-json", path}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}

	var jr experiments.JSONReport
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if jr.Schema != experiments.SchemaVersion {
		t.Fatalf("schema = %q, want %q", jr.Schema, experiments.SchemaVersion)
	}
	if jr.Seed != 7 || !jr.Quick {
		t.Errorf("config echo: seed=%d quick=%v, want seed=7 quick=true", jr.Seed, jr.Quick)
	}
	if got, want := len(jr.Experiments), 2; got != want {
		t.Fatalf("experiments = %d, want %d", got, want)
	}
	for i, id := range []string{"E2", "E8"} {
		exp := jr.Experiments[i]
		if exp.ID != id {
			t.Errorf("experiment %d: id = %q, want %q", i, exp.ID, id)
		}
		if exp.Title == "" || exp.Claim == "" {
			t.Errorf("%s: empty title or claim", id)
		}
		if len(exp.Tables) == 0 {
			t.Errorf("%s: no tables", id)
		}
		for _, tab := range exp.Tables {
			if len(tab.Header) == 0 {
				t.Errorf("%s: table without header", id)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("%s: row width %d != header width %d", id, len(row), len(tab.Header))
				}
			}
		}
		if len(exp.Metrics) == 0 {
			t.Errorf("%s: no metric summaries", id)
		}
		for _, m := range exp.Metrics {
			if m.Series == "" || m.Metric == "" {
				t.Errorf("%s: metric point missing series/metric: %+v", id, m)
			}
			if m.Summary.Count <= 0 {
				t.Errorf("%s: %s/%s summary count = %d, want > 0", id, m.Series, m.Metric, m.Summary.Count)
			}
			if m.Summary.Min > m.Summary.Max {
				t.Errorf("%s: %s/%s min %v > max %v", id, m.Series, m.Metric, m.Summary.Min, m.Summary.Max)
			}
		}
	}

	if jr.Host == nil {
		t.Fatal("report missing host header")
	}
	if jr.Host.GoVersion == "" || jr.Host.GOMAXPROCS < 1 || jr.Host.NumCPU < 1 || jr.Host.Shards != 1 {
		t.Errorf("host header incomplete: %+v", jr.Host)
	}
	for _, exp := range jr.Experiments {
		if exp.Perf == nil {
			t.Errorf("%s: missing perf section", exp.ID)
			continue
		}
		p := exp.Perf
		if p.Trials == 0 {
			t.Errorf("%s: perf reports 0 trials", exp.ID)
		}
		tm := p.TrialMs
		if tm.Mean <= 0 || tm.Max <= 0 {
			t.Errorf("%s: non-positive trial timings: %+v", exp.ID, tm)
		}
		if tm.P50 > tm.P90 || tm.P90 > tm.P99 || tm.P99 > tm.Max*1.001 {
			t.Errorf("%s: trial quantiles out of order: %+v", exp.ID, tm)
		}
	}

	// Field-name stability: the documented keys must appear verbatim; a
	// renamed json tag is a schema break even if the typed round-trip works.
	var loose map[string]any
	if err := json.Unmarshal(raw, &loose); err != nil {
		t.Fatalf("re-unmarshal: %v", err)
	}
	for _, key := range []string{"schema", "seed", "quick", "host", "experiments"} {
		if _, ok := loose[key]; !ok {
			t.Errorf("top-level key %q missing", key)
		}
	}
	host := loose["host"].(map[string]any)
	for _, key := range []string{"goVersion", "goos", "goarch", "gomaxprocs", "numCpu", "poolShards", "pooled"} {
		if _, ok := host[key]; !ok {
			t.Errorf("host key %q missing", key)
		}
	}
	exp0 := loose["experiments"].([]any)[0].(map[string]any)
	for _, key := range []string{"id", "title", "claim", "durationMs", "perf", "tables", "metrics"} {
		if _, ok := exp0[key]; !ok {
			t.Errorf("experiment key %q missing", key)
		}
	}
	perf0 := exp0["perf"].(map[string]any)
	for _, key := range []string{"trials", "trialMs"} {
		if _, ok := perf0[key]; !ok {
			t.Errorf("perf key %q missing", key)
		}
	}
	trialMs := perf0["trialMs"].(map[string]any)
	for _, key := range []string{"mean", "p50", "p90", "p99", "max"} {
		if _, ok := trialMs[key]; !ok {
			t.Errorf("trialMs key %q missing", key)
		}
	}
	met0 := exp0["metrics"].([]any)[0].(map[string]any)
	for _, key := range []string{"series", "x", "metric", "summary"} {
		if _, ok := met0[key]; !ok {
			t.Errorf("metric key %q missing", key)
		}
	}
	sum0 := met0["summary"].(map[string]any)
	for _, key := range []string{"count", "mean", "std", "min", "max", "median", "p90"} {
		if _, ok := sum0[key]; !ok {
			t.Errorf("summary key %q missing", key)
		}
	}
}

// TestRunTimeout checks the -timeout flag: an absurdly small budget must
// abort the suite with a context error, and a partial (possibly empty)
// JSON report must still be written.
func TestRunTimeout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.json")
	err := run(context.Background(), []string{"-quick", "-e", "E2", "-timeout", "1ns", "-json", path}, io.Discard)
	if err == nil {
		t.Fatal("run with 1ns timeout succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want DeadlineExceeded in chain", err)
	}
	raw, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatalf("partial report not written: %v", readErr)
	}
	var jr experiments.JSONReport
	if jsonErr := json.Unmarshal(raw, &jr); jsonErr != nil {
		t.Fatalf("partial report is not valid JSON: %v", jsonErr)
	}
}

// TestJSONToStdout checks that -json - writes the report (and only the
// report) to stdout, with tables diverted to stderr.
func TestJSONToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-e", "E8", "-json", "-"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var jr experiments.JSONReport
	if err := json.Unmarshal(out.Bytes(), &jr); err != nil {
		t.Fatalf("stdout is not a pure JSON report: %v", err)
	}
	if len(jr.Experiments) != 1 || jr.Experiments[0].ID != "E8" {
		t.Fatalf("unexpected experiments in report: %+v", jr.Experiments)
	}
}
