package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"radiomis/internal/store"
)

// wantCode GETs (or DELETEs) path and requires the status code.
func wantCode(t *testing.T, method, url string, code int) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != code {
		t.Fatalf("%s %s: status %d, want %d", method, url, resp.StatusCode, code)
	}
}

// TestFinishedJobHistoryCap floods the manager with cache-served jobs,
// which are born finished, while one job runs and one waits: the jobs
// that finished first are evicted and answer 410 on every job route, an
// ID never issued still answers 404, the in-flight jobs survive, and when
// they finish they are the newest finished jobs, so they stay.
func TestFinishedJobHistoryCap(t *testing.T) {
	m, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	cheap := JobRequest{Kind: KindSolve, Algorithm: "cd", N: 16, Trials: 1, Seed: 1}
	first, _ := submit(t, ts, cheap)
	waitTerminal(t, ts, first.ID)
	running, _ := submit(t, ts, JobRequest{Kind: KindExperiment, Experiment: "E5", Seed: 1})
	waitState(t, ts, running.ID, StateRunning)
	queued, _ := submit(t, ts, JobRequest{Kind: KindExperiment, Experiment: "E5", Seed: 2})

	const flood = maxFinishedJobs + 76
	ids := make([]string, flood)
	for i := range ids {
		j, _, err := m.Submit(context.Background(), cheap)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID()
	}
	// 1 + flood jobs finished: the first and the 76 oldest flood jobs go.
	evicted := append([]string{first.ID}, ids[:76]...)
	for _, id := range evicted {
		if _, ok := m.Job(id); ok {
			t.Fatalf("job %s kept, want it evicted", id)
		}
	}
	for _, path := range []string{"/v1/jobs/" + first.ID, "/v1/jobs/" + first.ID + "/events"} {
		wantCode(t, http.MethodGet, ts.URL+path, http.StatusGone)
	}
	wantCode(t, http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, http.StatusGone)
	wantCode(t, http.MethodGet, ts.URL+"/v1/jobs/j999999", http.StatusNotFound)
	wantCode(t, http.MethodGet, ts.URL+"/v1/jobs/j1", http.StatusNotFound)
	if st := getStatus(t, ts, running.ID); st.State != StateRunning {
		t.Fatalf("running job is %s", st.State)
	}
	if st := getStatus(t, ts, queued.ID); st.State != StateQueued {
		t.Fatalf("queued job is %s", st.State)
	}
	getStatus(t, ts, ids[76])
	if got := len(m.Jobs()); got != maxFinishedJobs+2 {
		t.Fatalf("job list has %d entries, want %d", got, maxFinishedJobs+2)
	}

	cancelJob(t, ts, queued.ID)
	cancelJob(t, ts, running.ID)
	waitTerminal(t, ts, running.ID)
	for _, id := range []string{running.ID, queued.ID, ids[78]} {
		getStatus(t, ts, id)
	}
	for _, id := range ids[76:78] {
		wantCode(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, http.StatusGone)
	}
	m.mu.Lock()
	kept, order := len(m.jobs), len(m.order)
	m.mu.Unlock()
	if kept != maxFinishedJobs || order > 2*kept {
		t.Fatalf("%d jobs kept and %d IDs in order, want %d and at most twice that", kept, order, maxFinishedJobs)
	}
	if got := len(m.Jobs()); got != maxFinishedJobs {
		t.Fatalf("job list has %d entries, want %d", got, maxFinishedJobs)
	}
}

// TestFinishedJobHistoryReplay replays a WAL holding more finished jobs
// than the cap, finished in the reverse of their submission order, plus
// one job that was running at the crash: the cap evicts the jobs that
// finished first, and the re-enqueued job survives and runs.
func TestFinishedJobHistoryReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const total = maxFinishedJobs + 6
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 1; i <= total+1; i++ {
		req := JobRequest{Kind: KindSolve, Algorithm: "cd", N: 8, Trials: 1, Seed: uint64(i)}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("j%06d", i)
		if err := st.Append(store.Record{T: store.RecordJob, ID: id, Time: t0, Req: body}); err != nil {
			t.Fatal(err)
		}
		state, at := StateDone, t0.Add(time.Duration(total-i)*time.Second)
		if i == total+1 {
			state = StateRunning
		}
		if err := st.Append(store.Record{T: store.RecordState, ID: id, Time: at, State: state}); err != nil {
			t.Fatal(err)
		}
	}
	m, ts := newTestServer(t, Options{Workers: 1, Store: st})
	// Job i finished at t0 + (total−i) s, so the six highest IDs finished
	// first and are evicted.
	for i := total - 5; i <= total; i++ {
		wantCode(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/j%06d", ts.URL, i), http.StatusGone)
	}
	for _, i := range []int{1, total - 7} {
		getStatus(t, ts, fmt.Sprintf("j%06d", i))
	}
	requeued := fmt.Sprintf("j%06d", total+1)
	if st := waitTerminal(t, ts, requeued); st.State != StateDone {
		t.Fatalf("re-enqueued job ended %s", st.State)
	}
	wantCode(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/j%06d", ts.URL, total+2), http.StatusNotFound)
	// The requeued job's finish evicted the oldest kept one, job total−6.
	wantCode(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/j%06d", ts.URL, total-6), http.StatusGone)
	if got := len(m.Jobs()); got != maxFinishedJobs {
		t.Fatalf("job list has %d entries, want %d", got, maxFinishedJobs)
	}
}
