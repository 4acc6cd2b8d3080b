package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"radiomis/internal/mis"
	"radiomis/internal/server"
	"radiomis/internal/trace"
)

// workload is one traffic mix: the request every operation sends (with a
// fresh seed each time), how the process is configured for it, and how much
// of it is set up, verified and traced per run. README.md gives the reasons
// behind each choice.
type workload struct {
	name string
	// job is the solve request of a job workload (nil for schedule-edges);
	// engine is the trial engine its result must report.
	job    *server.JobRequest
	engine string
	// setupOps operations run in every set-up, cold, before timing starts.
	setupOps int
	// verifyOps is the number of leading operations of a run whose outputs
	// are recomputed independently; the exact work counts cover them.
	verifyOps int
	// traceOpsPerSecond sets the traced run's fixed operation count from
	// --seconds, so that its exact counts depend only on seed and length.
	traceOpsPerSecond float64
}

// The schedule-edges conflict graphs: G(256, 8/256), about 1,000 edges.
const (
	schedN      = 256
	schedDegree = 8.0
	// schedGraphs distinct graphs are generated per set-up and cycled
	// through; every request still carries a fresh seed, so neither the
	// plan cache nor the planner's CSR cache ever answers.
	schedGraphs = 32
)

var workloads = []*workload{
	{
		name:   "cd-grid",
		job:    &server.JobRequest{Kind: server.KindSolve, Algorithm: "cd", Family: "grid", N: 1024, Trials: 64},
		engine: mis.EngineLockstep, setupOps: 2, verifyOps: 2, traceOpsPerSecond: 1.5,
	},
	{
		name:   "nocd-grid",
		job:    &server.JobRequest{Kind: server.KindSolve, Algorithm: "nocd", Family: "grid", N: 64, Trials: 2},
		engine: mis.EngineScalar, setupOps: 2, verifyOps: 4, traceOpsPerSecond: 1.5,
	},
	{
		name:     "schedule-edges",
		setupOps: 100, verifyOps: 64, traceOpsPerSecond: 100,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// unitsPerOp is the number of throughput units one operation completes:
// trials for a job workload, plans for schedule-edges.
func (w *workload) unitsPerOp() int {
	if w.job != nil {
		return w.job.Trials
	}
	return 1
}

// Seed streams: each use of the workload seed draws from its own stream,
// so set-up, timed and traced requests never repeat one another's seeds.
const (
	streamSetup uint64 = iota + 1
	streamTimed
	streamTracePlain
	streamTraced
	streamGraphs
)

// mix derives an independent 64-bit value from (seed, stream) with two
// SplitMix64 finalizer rounds. Request seeds come from here rather than the
// program's own rng package, so the inputs stay fixed if that package
// changes.
func mix(seed, stream uint64) uint64 {
	z := seed ^ (stream+1)*0x9e3779b97f4a7c15
	for i := 0; i < 2; i++ {
		z += 0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// opSeed is the request seed of operation i on the given stream.
func opSeed(seed, stream uint64, i int) uint64 {
	return mix(mix(seed, stream), uint64(i))
}

// bench is one set-up of a workload: a fresh manager, its handler, and the
// encoded request inputs.
type bench struct {
	w    *workload
	seed uint64
	m    *server.Manager
	h    http.Handler
	// tr, when non-nil, records benchmark-side spans around the handler
	// calls. It is never installed on a context the program sees.
	tr *trace.Tracer

	// Schedule inputs: per graph, its edge list and the JSON encoding of it.
	edges     [][][2]int
	edgesJSON [][]byte
	body      []byte // reused request-body buffer
}

// newBench builds a manager configured like a default radiomisd with
// tracing off, its handler, and the workload's request inputs.
func newBench(w *workload, seed uint64) (*bench, error) {
	b := &bench{w: w, seed: seed}
	b.m = server.New(server.Options{})
	b.h = server.NewHandler(b.m)
	if w.job == nil {
		gseed := mix(seed, streamGraphs)
		for k := 0; k < schedGraphs; k++ {
			edges := gnpEdges(schedN, schedDegree/schedN, rand.New(rand.NewPCG(gseed, uint64(k))))
			enc, err := json.Marshal(edges)
			if err != nil {
				return nil, fmt.Errorf("encoding schedule edges: %w", err)
			}
			b.edges = append(b.edges, edges)
			b.edgesJSON = append(b.edgesJSON, enc)
		}
	}
	return b, nil
}

func (b *bench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.m.Shutdown(ctx)
}

// gnpEdges draws a G(n, p) edge list.
func gnpEdges(n int, p float64, r *rand.Rand) [][2]int {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return edges
}

// jobRequest is the solve request operation i of a stream sends.
func (b *bench) jobRequest(stream uint64, i int) server.JobRequest {
	req := *b.w.job
	req.Seed = opSeed(b.seed, stream, i)
	return req
}

// scheduleBody encodes the schedule request operation i of a stream sends
// into the reused body buffer, and returns the graph index and seed.
func (b *bench) scheduleBody(stream uint64, i int) (body []byte, graph int, seed uint64) {
	graph = i % schedGraphs
	seed = opSeed(b.seed, stream, i)
	buf := append(b.body[:0], `{"n":`...)
	buf = strconv.AppendInt(buf, schedN, 10)
	buf = append(buf, `,"seed":`...)
	buf = strconv.AppendUint(buf, seed, 10)
	buf = append(buf, `,"edges":`...)
	buf = append(buf, b.edgesJSON[graph]...)
	buf = append(buf, '}')
	b.body = buf
	return buf, graph, seed
}

// outcome is what one operation sent and got back, kept for verification:
// a job's request and final status, or a plan request's graph index and
// the plan.
type outcome struct {
	job    *server.JobRequest
	status *server.JobStatus

	graph int
	plan  *server.ScheduleResult
}

// op sends operation i of the stream through the handler and checks the
// response. It returns the operation's latency: POST through done to the
// status GET for a job, the POST for a schedule. When the bench traces, a
// "bench.request" span under parent covers exactly that latency, with a
// span per handler call inside it.
func (b *bench) op(parent trace.SpanContext, stream uint64, i int) (time.Duration, *outcome, error) {
	if b.w.job != nil {
		return b.jobOp(parent, stream, i)
	}
	return b.scheduleOp(parent, stream, i)
}

// span starts a benchmark-side span at start, or returns nil (whose End is
// a no-op) when the bench does not trace.
func (b *bench) span(parent trace.SpanContext, name string, start time.Time) *trace.Span {
	if b.tr == nil {
		return nil
	}
	return b.tr.StartSpan(parent, name, start)
}

// serve runs one handler call under a "server.http" span.
func (b *bench) serve(parent trace.SpanContext, method, target string, body []byte) *httptest.ResponseRecorder {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, rec := httptest.NewRequest(method, target, r), httptest.NewRecorder()
	sp := b.span(parent, "server.http", time.Now())
	b.h.ServeHTTP(rec, req)
	sp.End()
	return rec
}

func (b *bench) jobOp(parent trace.SpanContext, stream uint64, i int) (time.Duration, *outcome, error) {
	req := b.jobRequest(stream, i)
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, fmt.Errorf("encoding job request: %w", err)
	}

	start := time.Now()
	rs := b.span(parent, "bench.request", start)
	defer rs.End() // on failure; a completed request ends at its latency
	rc := rs.Context()
	rec := b.serve(rc, http.MethodPost, "/v1/jobs", body)
	if rec.Code != http.StatusAccepted {
		// 200 would mean the result cache or single-flight answered.
		return 0, nil, fmt.Errorf("POST /v1/jobs: status %d, want %d: %s", rec.Code, http.StatusAccepted, rec.Body.Bytes())
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		return 0, nil, fmt.Errorf("decoding submit response: %w", err)
	}
	j, ok := b.m.Job(sub.ID)
	if !ok {
		return 0, nil, fmt.Errorf("job %q not found after submit", sub.ID)
	}
	sp := b.span(rc, "server.wait", time.Now())
	<-j.Done()
	sp.End()
	rec = b.serve(rc, http.MethodGet, "/v1/jobs/"+sub.ID, nil)
	end := time.Now()
	rs.EndAt(end)

	if rec.Code != http.StatusOK {
		return 0, nil, fmt.Errorf("GET /v1/jobs/%s: status %d: %s", sub.ID, rec.Code, rec.Body.Bytes())
	}
	var st server.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, nil, fmt.Errorf("decoding job status: %w", err)
	}
	if err := checkJob(&st, req, b.w.engine); err != nil {
		return 0, nil, fmt.Errorf("job %s (seed %d): %w", sub.ID, req.Seed, err)
	}
	return end.Sub(start), &outcome{job: &req, status: &st}, nil
}

func (b *bench) scheduleOp(parent trace.SpanContext, stream uint64, i int) (time.Duration, *outcome, error) {
	body, graph, seed := b.scheduleBody(stream, i)
	start := time.Now()
	rs := b.span(parent, "bench.request", start)
	rec := b.serve(rs.Context(), http.MethodPost, "/v1/schedule", body)
	end := time.Now()
	rs.EndAt(end)

	if rec.Code != http.StatusOK {
		return 0, nil, fmt.Errorf("POST /v1/schedule: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var res server.ScheduleResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		return 0, nil, fmt.Errorf("decoding schedule response: %w", err)
	}
	if err := checkSchedule(&res, seed); err != nil {
		return 0, nil, fmt.Errorf("schedule (seed %d): %w", seed, err)
	}
	return end.Sub(start), &outcome{graph: graph, plan: &res}, nil
}

// solveMetrics are the metric names every clean solve job reports.
var solveMetrics = []string{"avgEnergy", "maxEnergy", "rounds", "success"}

// checkJob is the check every job's final status passes: it finished, ran
// (no cache answer) on the expected engine, and reports every metric over
// every trial.
func checkJob(st *server.JobStatus, req server.JobRequest, engine string) error {
	if st.State != server.StateDone {
		return fmt.Errorf("state %q (error %q), want %q", st.State, st.Error, server.StateDone)
	}
	if st.Cached {
		return fmt.Errorf("served from the result cache")
	}
	if st.Result == nil || st.Result.Solve == nil {
		return fmt.Errorf("done without a solve result")
	}
	sr := st.Result.Solve
	if sr.Algorithm != req.Algorithm || sr.Family != req.Family || sr.N != req.N || sr.Trials != req.Trials {
		return fmt.Errorf("result echoes %s/%s n=%d trials=%d, want %s/%s n=%d trials=%d",
			sr.Algorithm, sr.Family, sr.N, sr.Trials, req.Algorithm, req.Family, req.N, req.Trials)
	}
	if sr.Engine != engine {
		return fmt.Errorf("ran on engine %q, want %q", sr.Engine, engine)
	}
	for _, name := range solveMetrics {
		if s, ok := sr.Metrics[name]; !ok || s.Count != req.Trials {
			return fmt.Errorf("metric %q missing or over %d trials, want %d", name, s.Count, req.Trials)
		}
	}
	return nil
}

// checkSchedule is the check every schedule response passes: computed (not
// replayed) for this request, and self-consistent.
func checkSchedule(res *server.ScheduleResult, seed uint64) error {
	switch {
	case res.Cached:
		return fmt.Errorf("served from the plan cache")
	case res.N != schedN || res.Seed != seed || res.Algorithm != "linear":
		return fmt.Errorf("response echoes n=%d seed=%d algorithm=%q", res.N, res.Seed, res.Algorithm)
	case res.Stats.Vertices != schedN || res.Stats.Batches != len(res.Batches) || len(res.Batches) == 0:
		return fmt.Errorf("stats %+v disagree with %d batches over %d vertices", res.Stats, len(res.Batches), schedN)
	}
	return nil
}
