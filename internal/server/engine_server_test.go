package server

import (
	"bytes"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"radiomis/internal/faults"
	"radiomis/internal/harness"
	"radiomis/internal/mis"
)

// TestEngineNormalizeAndCacheKeys pins the engine field's canonical form:
// "" and "auto" are the same job (and keep the legacy cache key), while a
// forced engine is a distinct computation.
func TestEngineNormalizeAndCacheKeys(t *testing.T) {
	base := JobRequest{Kind: KindSolve, Algorithm: "cd", Family: "cycle", N: 32, Trials: 2, Seed: 3}
	auto := base
	auto.Engine = "auto"
	scalar := base
	scalar.Engine = mis.EngineScalar
	lockstep := base
	lockstep.Engine = mis.EngineLockstep
	for _, r := range []*JobRequest{&base, &auto, &scalar, &lockstep} {
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if auto.Engine != "" {
		t.Errorf("auto engine not canonicalized to empty: %q", auto.Engine)
	}
	if base.Key() != auto.Key() {
		t.Error("explicit auto engine changed the cache key")
	}
	if base.Key() == scalar.Key() || base.Key() == lockstep.Key() || scalar.Key() == lockstep.Key() {
		t.Error("forced engines must have distinct cache keys")
	}

	exp := JobRequest{Kind: KindExperiment, Experiment: "E2", Quick: true, Engine: "lockstep"}
	if err := exp.Normalize(); err != nil {
		t.Fatal(err)
	}
	if exp.Engine != "" {
		t.Error("experiment job kept an engine")
	}
}

// TestEngineRejection checks that unknown engines and ineligible forced-
// lockstep jobs are rejected at normalization time with the reason.
func TestEngineRejection(t *testing.T) {
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{
			name: "unknown engine",
			req:  JobRequest{Kind: KindSolve, Algorithm: "cd", Family: "cycle", N: 8, Engine: "warp"},
			want: "unknown engine",
		},
		{
			name: "no lane program",
			req:  JobRequest{Kind: KindSolve, Algorithm: "nocd", Family: "cycle", N: 8, Engine: "lockstep"},
			want: "no lockstep lane program",
		},
		{
			name: "seed-varying family",
			req:  JobRequest{Kind: KindSolve, Algorithm: "cd", Family: "gnp", N: 8, Engine: "lockstep"},
			want: "not seed-invariant",
		},
		{
			name: "faults",
			req: JobRequest{Kind: KindSolve, Algorithm: "cd", Family: "cycle", N: 8,
				Engine: "lockstep", Faults: &faults.Profile{Loss: 0.1}},
			want: "fault injection",
		},
	}
	for _, tc := range cases {
		err := tc.req.Normalize()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// The same rejections surface as HTTP 400s at submit time.
	_, ts := newTestServer(t, Options{Workers: 1})
	_, resp := submit(t, ts, JobRequest{Kind: KindSolve, Algorithm: "cd", Family: "gnp", N: 8, Engine: "lockstep"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ineligible forced lockstep: status = %d, want 400", resp.StatusCode)
	}
}

// TestEngineLockstepJobMatchesScalar runs the same solve job on both
// engines and requires bit-identical per-trial rows — the server-level
// version of the mis parity guarantee. 70 trials spans two lane groups.
// On each engine a TrialOffset job must also reproduce its slice of rows.
func TestEngineLockstepJobMatchesScalar(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	base := JobRequest{Kind: KindSolve, Algorithm: "cd", Family: "cycle", N: 33,
		Trials: 70, Seed: 11, Rows: true}
	results := map[string]*SolveResult{}
	for _, engine := range []string{mis.EngineScalar, mis.EngineLockstep} {
		req := base
		req.Engine = engine
		st, resp := submit(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("engine %s: submit status = %d", engine, resp.StatusCode)
		}
		if st.Request.Engine != engine {
			t.Errorf("engine %s: normalized request engine = %q", engine, st.Request.Engine)
		}
		final := waitTerminal(t, ts, st.ID)
		if final.State != StateDone {
			t.Fatalf("engine %s: state = %q (error %q)", engine, final.State, final.Error)
		}
		sr := final.Result.Solve
		if sr == nil {
			t.Fatalf("engine %s: no solve result", engine)
		}
		if sr.Engine != engine {
			t.Errorf("engine %s: result reports engine %q", engine, sr.Engine)
		}
		if len(sr.Rows) != base.Trials {
			t.Fatalf("engine %s: %d rows, want %d", engine, len(sr.Rows), base.Trials)
		}
		results[engine] = sr

		// TrialOffset reruns a trial range: trials [5, 70) must come back
		// as exactly rows[5:] of the full job, trial indices and seeds
		// included.
		req.TrialOffset, req.Trials = 5, base.Trials-5
		st, _ = submit(t, ts, req)
		tail := waitTerminal(t, ts, st.ID)
		if tail.State != StateDone {
			t.Fatalf("engine %s, trialOffset 5: state = %q (error %q)", engine, tail.State, tail.Error)
		}
		if !reflect.DeepEqual(tail.Result.Solve.Rows, sr.Rows[5:]) {
			t.Errorf("engine %s: trialOffset 5 rows differ from rows[5:] of the %d-trial job", engine, base.Trials)
		}
	}
	sc, lk := results[mis.EngineScalar], results[mis.EngineLockstep]
	if !reflect.DeepEqual(sc.Rows, lk.Rows) {
		t.Error("per-trial rows diverge between scalar and lockstep engines")
	}
	if !reflect.DeepEqual(sc.Metrics, lk.Metrics) {
		t.Error("aggregate metrics diverge between scalar and lockstep engines")
	}
}

// TestEngineAutoResolution checks auto's choice: eligible jobs run
// lockstep, ineligible ones fall back to scalar, and the result reports
// which engine actually ran.
func TestEngineAutoResolution(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"eligible", JobRequest{Kind: KindSolve, Algorithm: "cd", Family: "cycle", N: 16, Trials: 2, Seed: 1}, mis.EngineLockstep},
		{"seed-varying family", JobRequest{Kind: KindSolve, Algorithm: "cd", Family: "gnp", N: 16, Trials: 2, Seed: 1}, mis.EngineScalar},
		{"no lane program", JobRequest{Kind: KindSolve, Algorithm: "nocd", Family: "cycle", N: 16, Trials: 2, Seed: 1}, mis.EngineScalar},
		{"faulty", JobRequest{Kind: KindSolve, Algorithm: "cd", Family: "cycle", N: 16, Trials: 2, Seed: 1,
			Faults: &faults.Profile{Loss: 0.05}}, mis.EngineScalar},
	}
	for _, tc := range cases {
		st, _ := submit(t, ts, tc.req)
		final := waitTerminal(t, ts, st.ID)
		if final.State != StateDone {
			t.Fatalf("%s: state = %q (error %q)", tc.name, final.State, final.Error)
		}
		if got := final.Result.Solve.Engine; got != tc.want {
			t.Errorf("%s: ran on engine %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestEngineLaneTrialsMetric checks the lane-trials counter: a lockstep
// job adds its trial count, a scalar job adds nothing, and the family is
// exposed on GET /metrics.
func TestEngineLaneTrialsMetric(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st, _ := submit(t, ts, JobRequest{Kind: KindSolve, Algorithm: "cd", Family: "cycle", N: 16,
		Trials: 5, Seed: 2, Engine: "lockstep"})
	waitTerminal(t, ts, st.ID)
	st, _ = submit(t, ts, JobRequest{Kind: KindSolve, Algorithm: "cd", Family: "cycle", N: 16,
		Trials: 3, Seed: 2, Engine: "scalar"})
	waitTerminal(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if !strings.Contains(body, MetricEngineLaneTrials+" 5") {
		t.Errorf("metrics missing %q in:\n%s", MetricEngineLaneTrials+" 5", body)
	}
	if !strings.Contains(body, harness.MetricTrialsTotal+" 8") {
		t.Errorf("metrics missing %q (all 8 trials, both engines) in:\n%s", harness.MetricTrialsTotal+" 8", body)
	}
}
