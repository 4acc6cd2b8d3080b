package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"radiomis/internal/experiments"
	"radiomis/internal/telemetry"
)

func newTestServer(t *testing.T, opts Options) (*Manager, *httptest.Server) {
	t.Helper()
	m := New(opts)
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m, ts
}

func submit(t *testing.T, ts *httptest.Server, req JobRequest) (*JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return &st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) *JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if isTerminal(st.State) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return nil
}

func TestSubmitStatusResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	st, resp := submit(t, ts, JobRequest{Kind: KindExperiment, Experiment: "e8", Quick: true, Seed: 5})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if st.Schema != SchemaVersion {
		t.Errorf("schema = %q, want %q", st.Schema, SchemaVersion)
	}
	if st.Request.Experiment != "E8" {
		t.Errorf("experiment not canonicalized: %q", st.Request.Experiment)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %q (error %q), want done", final.State, final.Error)
	}
	if final.Cached {
		t.Error("first run marked cached")
	}
	if final.Result == nil || final.Result.Experiment == nil {
		t.Fatal("done job has no experiment result")
	}
	if final.Result.Experiment.ID != "E8" {
		t.Errorf("result experiment ID = %q", final.Result.Experiment.ID)
	}
	if len(final.Result.Experiment.Metrics) == 0 {
		t.Error("experiment result has no metrics")
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Error("missing started/finished timestamps")
	}
}

func TestSolveJob(t *testing.T) {
	m, ts := newTestServer(t, Options{Workers: 2})
	st, resp := submit(t, ts, JobRequest{Kind: KindSolve, Algorithm: "cd", N: 64, Trials: 3, Seed: 9})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %q (error %q), want done", final.State, final.Error)
	}
	// A finished job stays listed, but its private telemetry registry is
	// folded into the daemon's and dropped, so memory does not grow with
	// every job served.
	j, ok := m.Job(st.ID)
	if !ok {
		t.Fatal("finished job no longer listed")
	}
	<-j.Done()
	if j.reg != nil {
		t.Error("finished job still holds its telemetry registry")
	}
	sr := final.Result.Solve
	if sr == nil {
		t.Fatal("no solve result")
	}
	if sr.Family != "gnp" {
		t.Errorf("family not defaulted: %q", sr.Family)
	}
	for _, metric := range []string{"maxEnergy", "avgEnergy", "rounds", "success"} {
		s, ok := sr.Metrics[metric]
		if !ok {
			t.Errorf("metric %q missing", metric)
			continue
		}
		if s.Count != 3 {
			t.Errorf("%s count = %d, want 3", metric, s.Count)
		}
	}
	if s := sr.Metrics["success"]; s.Mean != 1 {
		t.Errorf("success mean = %v, want 1", s.Mean)
	}
}

func TestInvalidRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for name, req := range map[string]JobRequest{
		"unknown kind":       {Kind: "bogus"},
		"unknown experiment": {Kind: KindExperiment, Experiment: "E99"},
		"unknown algorithm":  {Kind: KindSolve, Algorithm: "quantum", N: 8},
		"unknown family":     {Kind: KindSolve, Algorithm: "cd", Family: "moebius", N: 8},
		"missing n":          {Kind: KindSolve, Algorithm: "cd"},
	} {
		_, resp := submit(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kind": "experiment", "bogusField": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: status = %d, want 400", resp.StatusCode)
	}
}

// TestRequestBodyLimits sends each route that reads a body one byte past
// its limit: both answer 413 with the limit in the message. A body of
// exactly the limit still reaches decoding and validation.
func TestRequestBodyLimits(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	post := func(route, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct{ Error string }
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decoding error response: %v", route, err)
		}
		return resp.StatusCode, e.Error
	}
	for _, tc := range []struct {
		route, valid string // valid: a small body that fails validation with 400
		limit        int
	}{
		{"/v1/jobs", `{"kind":"bogus"}`, maxJobBodyBytes},
		{"/v1/schedule", `{"n":0}`, maxScheduleBodyBytes},
	} {
		pad := strings.Repeat(" ", tc.limit-len(tc.valid))
		if status, msg := post(tc.route, pad+tc.valid); status != http.StatusBadRequest {
			t.Errorf("%s: body of exactly %d bytes: status %d (%s), want 400", tc.route, tc.limit, status, msg)
		}
		status, msg := post(tc.route, " "+pad+tc.valid)
		want := fmt.Sprintf("request body exceeds the limit of %d bytes", tc.limit)
		if status != http.StatusRequestEntityTooLarge || msg != want {
			t.Errorf("%s: body of %d bytes: status %d, error %q; want 413, %q", tc.route, tc.limit+1, status, msg, want)
		}
	}
}

func TestCacheHitOnResubmission(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := JobRequest{Kind: KindExperiment, Experiment: "E8", Quick: true, Seed: 11}
	first, _ := submit(t, ts, req)
	firstDone := waitTerminal(t, ts, first.ID)
	if firstDone.State != StateDone {
		t.Fatalf("first run: state %q (error %q)", firstDone.State, firstDone.Error)
	}

	second, resp := submit(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cache-hit status = %d, want 200", resp.StatusCode)
	}
	if !second.Cached {
		t.Fatal("resubmission not marked cached")
	}
	if second.State != StateDone {
		t.Fatalf("cached job state = %q, want done immediately", second.State)
	}
	if second.ID == first.ID {
		t.Error("cached submission reused the original job ID")
	}

	// The cached result must be the benchsuite-identical record: same
	// metrics, same tables (duration may differ).
	a, b := firstDone.Result.Experiment, second.Result.Experiment
	am, _ := json.Marshal(a.Metrics)
	bm, _ := json.Marshal(b.Metrics)
	if !bytes.Equal(am, bm) {
		t.Error("cached metrics differ from original run")
	}

	// A different seed must miss the cache.
	req.Seed = 12
	third, resp := submit(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("different-seed submit: status = %d, want 202", resp.StatusCode)
	}
	if third.Cached {
		t.Error("different seed served from cache")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	// One worker, depth-1 queue: a long-running job plus one queued job
	// saturate the service; the next submission must get 429 + Retry-After.
	m, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	running, _ := submit(t, ts, JobRequest{Kind: KindExperiment, Experiment: "E5", Seed: 1})
	waitState(t, ts, running.ID, StateRunning)
	queued, resp := submit(t, ts, JobRequest{Kind: KindExperiment, Experiment: "E5", Seed: 2})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status = %d, want 202", resp.StatusCode)
	}

	_, resp = submit(t, ts, JobRequest{Kind: KindExperiment, Experiment: "E5", Seed: 3})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if got := m.Metrics().QueueRejected; got != 1 {
		t.Errorf("queue_rejected = %d, want 1", got)
	}

	// The rejected job must not be visible.
	var list JobList
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Errorf("job list has %d entries, want 2", len(list.Jobs))
	}

	// Free the pool so Cleanup's drain doesn't run the full experiments.
	cancelJob(t, ts, running.ID)
	cancelJob(t, ts, queued.ID)
}

func waitState(t *testing.T, ts *httptest.Server, id, state string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == state {
			return
		}
		if isTerminal(st.State) {
			t.Fatalf("job %s reached %q while waiting for %q", id, st.State, state)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, state)
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) *JobStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /v1/jobs/%s: status %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

func TestCancelRunningJobStopsWorker(t *testing.T) {
	// Cancel a full-scale experiment mid-run: the engine must abort at a
	// round boundary and the job must reach the canceled state promptly —
	// far sooner than the minutes the full experiment would take.
	m, ts := newTestServer(t, Options{Workers: 1})
	st, _ := submit(t, ts, JobRequest{Kind: KindExperiment, Experiment: "E5", Seed: 3})
	waitState(t, ts, st.ID, StateRunning)

	start := time.Now()
	cancelJob(t, ts, st.ID)
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state = %q, want canceled", final.State)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %v; engine did not abort promptly", elapsed)
	}
	if final.Result != nil {
		t.Error("canceled job carries a result")
	}

	// The worker must be free again: a quick job must complete.
	quick, _ := submit(t, ts, JobRequest{Kind: KindSolve, Algorithm: "cd", N: 16, Seed: 1})
	if got := waitTerminal(t, ts, quick.ID); got.State != StateDone {
		t.Fatalf("post-cancel job state = %q (error %q)", got.State, got.Error)
	}
	if got := m.Metrics().Canceled; got != 1 {
		t.Errorf("canceled count = %d, want 1", got)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	blocker, _ := submit(t, ts, JobRequest{Kind: KindExperiment, Experiment: "E5", Seed: 4})
	waitState(t, ts, blocker.ID, StateRunning)
	queued, _ := submit(t, ts, JobRequest{Kind: KindSolve, Algorithm: "cd", N: 32, Seed: 5})

	st := cancelJob(t, ts, queued.ID)
	if st.State != StateCanceled {
		t.Fatalf("queued job after cancel: state = %q, want canceled", st.State)
	}
	cancelJob(t, ts, blocker.ID)
}

func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st, _ := submit(t, ts, JobRequest{Kind: KindSolve, Algorithm: "cd", N: 48, Trials: 4, Seed: 2})

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}

	var states []string
	trialsSeen, perfSeen := 0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Ev          string  `json:"ev"`
			State       string  `json:"state"`
			Stage       string  `json:"stage"`
			Done        int     `json:"done"`
			Total       int     `json:"total"`
			QueueWaitMs float64 `json:"queueWaitMs"`
			RunMs       float64 `json:"runMs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		switch ev.Ev {
		case "state":
			states = append(states, ev.State)
		case "progress":
			if ev.Stage == "trial" {
				trialsSeen++
				if ev.Total != 4 {
					t.Errorf("trial event total = %d, want 4", ev.Total)
				}
			}
		case "perf":
			perfSeen++
			if len(states) != 2 {
				t.Errorf("perf event arrived after %d state events, want 2 (before the terminal state)", len(states))
			}
			if ev.RunMs <= 0 || ev.QueueWaitMs < 0 {
				t.Errorf("perf event timings: queueWaitMs=%v runMs=%v, want ≥0 / >0", ev.QueueWaitMs, ev.RunMs)
			}
		default:
			t.Errorf("unknown event discriminator %q", ev.Ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{StateQueued, StateRunning, StateDone}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Errorf("state sequence = %v, want %v", states, want)
	}
	if trialsSeen != 4 {
		t.Errorf("saw %d trial progress events, want 4", trialsSeen)
	}
	if perfSeen != 1 {
		t.Errorf("saw %d perf events, want exactly 1", perfSeen)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}

	st, _ := submit(t, ts, JobRequest{Kind: KindSolve, Algorithm: "cd", N: 16, Seed: 1})
	waitTerminal(t, ts, st.ID)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	body := buf.String()
	for _, line := range []string{
		"radiomisd_jobs_submitted_total 1",
		"radiomisd_jobs_executed_total 1",
		"radiomisd_jobs_done_total 1",
		"radiomisd_workers 1",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics missing %q in:\n%s", line, body)
		}
	}
}

// TestMetricsExposition verifies GET /metrics speaks the Prometheus text
// exposition format 0.0.4: versioned content type, # HELP/# TYPE headers
// for every family, histogram bucket/sum/count series for the job timing
// histograms, and the per-trial harness telemetry folded in from executed
// jobs (3 trials → trial histogram count 3).
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := JobRequest{Kind: KindSolve, Algorithm: "cd", N: 16, Trials: 3, Seed: 1}
	st, _ := submit(t, ts, req)
	final := waitTerminal(t, ts, st.ID)
	if final.QueueWaitMs == nil || *final.QueueWaitMs < 0 {
		t.Error("terminal job status missing queueWaitMs")
	}
	if final.RunMs == nil || *final.RunMs <= 0 {
		t.Error("terminal job status missing runMs")
	}
	// Resubmitting the identical request is a cache hit, giving the
	// cache-age histogram its sample.
	submit(t, ts, req)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("content type = %q, want %q", ct, telemetry.ContentType)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	body := buf.String()

	for _, want := range []string{
		"# HELP radiomisd_jobs_submitted_total ",
		"# TYPE radiomisd_jobs_submitted_total counter",
		"# TYPE radiomisd_queue_depth gauge",
		"# TYPE radiomisd_job_queue_wait_seconds histogram",
		"# TYPE radiomisd_job_run_seconds histogram",
		"# TYPE radiomisd_result_cache_age_seconds histogram",
		`radiomisd_job_run_seconds_bucket{le="+Inf"} 1`,
		"radiomisd_job_run_seconds_count 1",
		"radiomisd_job_queue_wait_seconds_count 1",
		"radiomisd_result_cache_age_seconds_count 1",
		"radiomis_trial_duration_seconds_count 3",
		"radiomis_trials_total 3",
		"radiomisd_jobs_cache_hits_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q in:\n%s", want, body)
		}
	}

	// Every sample line must belong to a family announced by a preceding
	// # TYPE header (ignoring the _bucket/_sum/_count suffixes).
	announced := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			announced[strings.Fields(rest)[0]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.SplitN(line, " ", 2)[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suf); ok && announced[cut] {
				base = cut
			}
		}
		if !announced[base] {
			t.Errorf("sample %q has no preceding # TYPE header", line)
		}
	}
}

// TestPprofOptIn verifies the profiling endpoints exist only when the
// handler is built with WithPprof.
func TestPprofOptIn(t *testing.T) {
	m := New(Options{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	on := httptest.NewServer(NewHandler(m, WithPprof()))
	defer on.Close()
	off := httptest.NewServer(NewHandler(m))
	defer off.Close()

	for url, want := range map[string]int{
		on.URL + "/debug/pprof/cmdline":  http.StatusOK,
		on.URL + "/debug/pprof/":         http.StatusOK,
		off.URL + "/debug/pprof/cmdline": http.StatusNotFound,
		off.URL + "/debug/pprof/":        http.StatusNotFound,
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", url, resp.StatusCode, want)
		}
	}
}

func TestShutdownDrainsQueuedJobs(t *testing.T) {
	m := New(Options{Workers: 1, QueueDepth: 4})
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		j, _, err := m.Submit(context.Background(), JobRequest{Kind: KindSolve, Algorithm: "cd", N: 24, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for _, id := range ids {
		j, ok := m.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st := j.Status(); st.State != StateDone {
			t.Errorf("job %s after drain: state %q (error %q)", id, st.State, st.Error)
		}
	}
	if _, _, err := m.Submit(context.Background(), JobRequest{Kind: KindSolve, Algorithm: "cd", N: 8, Seed: 9}); err != ErrDraining {
		t.Errorf("submit after shutdown: err = %v, want ErrDraining", err)
	}
}

func TestShutdownDeadlineAbortsRunningJob(t *testing.T) {
	m := New(Options{Workers: 1})
	j, _, err := m.Submit(context.Background(), JobRequest{Kind: KindExperiment, Experiment: "E5", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running so the drain has work to abort.
	deadline := time.Now().Add(time.Minute)
	for j.Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Errorf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if st := j.Status(); st.State != StateCanceled {
		t.Errorf("aborted job state = %q, want canceled", st.State)
	}
}

// TestExperimentParityWithBenchsuite verifies the service's headline
// guarantee: a quick E2 job submitted over HTTP yields exactly the JSON
// metrics and tables that `benchsuite -quick -seed 7 -e E2 -json` emits,
// because both paths are deterministic in (experiment, seed, scale).
func TestExperimentParityWithBenchsuite(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	st, _ := submit(t, ts, JobRequest{Kind: KindExperiment, Experiment: "E2", Quick: true, Seed: 7})
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %q (error %q)", final.State, final.Error)
	}

	cfg := experiments.Config{Seed: 7, Quick: true}
	def, err := experiments.Lookup("E2")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := def.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	jr := experiments.NewJSONReport(cfg)
	jr.Add(rep, 0, nil)
	want := jr.Experiments[0]
	got := final.Result.Experiment

	wantMetrics, _ := json.Marshal(want.Metrics)
	gotMetrics, _ := json.Marshal(got.Metrics)
	if !bytes.Equal(wantMetrics, gotMetrics) {
		t.Errorf("metrics differ from benchsuite:\n got %s\nwant %s", gotMetrics, wantMetrics)
	}
	wantTables, _ := json.Marshal(want.Tables)
	gotTables, _ := json.Marshal(got.Tables)
	if !bytes.Equal(wantTables, gotTables) {
		t.Errorf("tables differ from benchsuite:\n got %s\nwant %s", gotTables, wantTables)
	}
	if got.Title != want.Title || got.Claim != want.Claim {
		t.Error("title/claim differ from benchsuite")
	}
}

// TestSingleFlightDedup races N identical submissions against one slow
// worker pool and verifies the experiment executes exactly once: one
// executed job, and every submission resolves to the same result. Run
// under -race this also exercises the manager's locking.
func TestSingleFlightDedup(t *testing.T) {
	m, ts := newTestServer(t, Options{Workers: 2})
	req := JobRequest{Kind: KindExperiment, Experiment: "E8", Quick: true, Seed: 21}

	const clients = 16
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()

	var finals []*JobStatus
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		finals = append(finals, waitTerminal(t, ts, id))
	}
	ms := m.Metrics()
	if ms.Executed != 1 {
		t.Fatalf("executed = %d, want exactly 1 (dedup=%d cache=%d)", ms.Executed, ms.DedupHits, ms.CacheHits)
	}
	if ms.DedupHits+ms.CacheHits != clients-1 {
		t.Errorf("dedup+cache hits = %d, want %d", ms.DedupHits+ms.CacheHits, clients-1)
	}
	ref, _ := json.Marshal(finals[0].Result.Experiment.Metrics)
	for i, st := range finals {
		if st.State != StateDone {
			t.Fatalf("submission %d: state %q (error %q)", i, st.State, st.Error)
		}
		got, _ := json.Marshal(st.Result.Experiment.Metrics)
		if !bytes.Equal(ref, got) {
			t.Errorf("submission %d resolved to different metrics", i)
		}
	}
}
