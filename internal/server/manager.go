package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"radiomis/internal/experiments"
	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/harness"
	"radiomis/internal/logx"
	"radiomis/internal/mis"
	"radiomis/internal/obs"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
	"radiomis/internal/stats"
	"radiomis/internal/store"
	"radiomis/internal/telemetry"
	"radiomis/internal/trace"
)

// Sentinel errors surfaced by Submit; the HTTP layer maps them to status
// codes (400 / 429 / 503).
var (
	ErrBadRequest = errors.New("server: invalid job request")
	ErrQueueFull  = errors.New("server: job queue full")
	ErrDraining   = errors.New("server: shutting down")
)

// Options configures a Manager.
type Options struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run (default 16);
	// submissions beyond it are rejected with ErrQueueFull.
	QueueDepth int
	// CacheSize is the LRU result-cache capacity (default 64 entries;
	// negative disables caching).
	CacheSize int
	// Tracer, when non-nil, turns on distributed tracing: every job grows
	// a span tree (job → queue-wait/cache/run → harness trials → engine
	// round slices) parented under the submitting request's span, statuses
	// and event lines carry the traceId, and /debug/traces serves the
	// recent-span ring. nil disables tracing entirely; results are
	// bit-identical either way.
	Tracer *trace.Tracer
	// Logger receives the manager's structured job-lifecycle records;
	// records carry jobId and, when tracing, traceId/spanId. nil discards.
	Logger *slog.Logger
	// EventHeartbeat is how often an idle GET /v1/jobs/{id}/events stream
	// writes a {"ev":"heartbeat"} keep-alive line (default 15s; negative
	// disables heartbeats).
	EventHeartbeat time.Duration
	// Store, when non-nil, makes the job queue durable: every accepted
	// job and state transition is appended to the WAL, and New replays
	// the log — terminal jobs come back with their results (warming the
	// cache), queued and running jobs are re-enqueued and run again.
	// Replayed jobs keep their IDs; new IDs continue after them.
	Store *store.Log
	// Registry, when non-nil, is the telemetry registry behind GET
	// /metrics. Injecting one lets a subsystem created before the manager
	// (the WAL store) expose its instrument families on the same endpoint.
	// nil means a fresh private registry.
	Registry *telemetry.Registry
}

// ExecuteLocal runs the simulation described by a normalized request
// in-process and returns its result, bypassing the manager's queue,
// cache and WAL. Jobs run through the same code.
func ExecuteLocal(ctx context.Context, req JobRequest) (*JobResult, error) {
	return execute(ctx, req)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.CacheSize == 0 {
		o.CacheSize = 64
	}
	if o.Logger == nil {
		o.Logger = logx.Discard()
	}
	if o.EventHeartbeat == 0 {
		o.EventHeartbeat = 15 * time.Second
	}
	return o
}

// Metrics is a point-in-time snapshot of the manager's counters, exposed
// by GET /metrics.
type Metrics struct {
	Submitted     uint64 // accepted submissions (including cache/dedup hits)
	Executed      uint64 // jobs that actually started running a simulation
	CacheHits     uint64 // submissions answered from the result cache
	DedupHits     uint64 // submissions coalesced onto an in-flight job
	Done          uint64 // jobs finished successfully
	Failed        uint64 // jobs finished with an error
	Canceled      uint64 // jobs canceled before or during execution
	QueueRejected uint64 // submissions rejected with ErrQueueFull
	QueueDepth    int    // jobs currently waiting
	CacheLen      int    // entries currently cached
	Workers       int    // configured worker count
}

// maxFinishedJobs caps the finished jobs a Manager keeps for GET
// /v1/jobs/{id}, about 3 MB of status, result and event lines. Beyond it
// the job that finished first is evicted, and its ID answers 410 Gone;
// queued and running jobs are never evicted.
const maxFinishedJobs = 1024

// Manager owns the job lifecycle: a bounded queue feeding a fixed worker
// pool, a single-flight table coalescing identical in-flight submissions,
// an LRU cache serving identical resubmissions without re-running, and a
// history of the newest maxFinishedJobs finished jobs.
type Manager struct {
	opts Options

	rootCtx    context.Context
	rootCancel context.CancelFunc

	mu       sync.Mutex // guards everything below (and is never held while running a job)
	jobs     map[string]*Job
	order    []string        // job IDs in submission order; may hold evicted IDs until compacted
	finished []string        // kept finished job IDs, oldest-finished first
	inflight map[string]*Job // canonical key → queued-or-running job
	cache    *lruCache[*JobResult]
	queue    chan *Job
	seq      int
	draining bool

	// ready flips to true once startup replay has re-enqueued persisted
	// jobs, and back to false when draining starts; GET /readyz reports
	// it so load balancers and k8s-style probes stop routing to a daemon
	// before it goes away. Atomic so the HTTP path skips m.mu.
	ready atomic.Bool

	// reg is the daemon-wide telemetry registry behind GET /metrics; met
	// holds the instruments registered on it. Counters are atomic, so
	// they're bumped outside m.mu where convenient.
	reg *telemetry.Registry
	met managerMetrics

	// sched serves POST /v1/schedule synchronously, outside the job
	// machinery; it has its own mutex, plan cache, and planner free list.
	sched *scheduler

	wg sync.WaitGroup
}

// managerMetrics bundles the manager's telemetry instruments. The counter
// names match the historical bare-line /metrics output, so dashboards keyed
// on them survived the move to full Prometheus exposition.
type managerMetrics struct {
	submitted, executed, cacheHits, dedupHits *telemetry.Counter
	done, failed, canceled, queueRejected     *telemetry.Counter
	queueDepth, cacheEntries, workers         *telemetry.Gauge
	queueWait, runDur, cacheAge               *telemetry.Histogram
	trials, laneTrials                        *telemetry.Counter
	trialDur                                  *telemetry.Histogram
	lanesOccupied                             *telemetry.Histogram
	scalarFallback                            telemetry.CounterVec
}

// MetricEngineLaneTrials counts solve trials executed on the bit-parallel
// lockstep engine — each occupied one bit-lane of a batched engine pass.
// Compare it against the harness trials total to see how much of the
// daemon's workload runs bit-parallel.
const MetricEngineLaneTrials = "radiomisd_engine_lane_trials_total"

const metricEngineLaneTrialsHelp = "Trials executed on the bit-parallel lockstep engine, one per occupied bit-lane."

// MetricEngineLanesOccupied is a dimensionless histogram of how many
// bit-lanes each lockstep engine batch actually occupied (1..64): a
// distribution hugging 64 means the engine runs full, a low tail exposes
// fragmented batches (trial counts far from a lane multiple).
const MetricEngineLanesOccupied = "radiomisd_engine_lanes_occupied"

const metricEngineLanesOccupiedHelp = "Bit-lanes occupied per lockstep engine batch."

// MetricEngineScalarFallback counts solve trials routed to the scalar
// engine, labeled by why: reason="forced" (the request pinned scalar),
// "faults" (fault injection), "algorithm" (no lockstep lane program), or
// "family" (graph family not seed-invariant). Together with the lane-trial
// counter it makes the auto-engine's routing decisions observable.
const MetricEngineScalarFallback = "radiomisd_engine_scalar_fallback_total"

const metricEngineScalarFallbackHelp = "Solve trials routed to the scalar engine, by fallback reason."

// MetricBuildInfo is the constant-1 gauge carrying the binary's build
// identity as labels, the standard fleet-dashboard join key between
// metrics and deploys.
const MetricBuildInfo = "radiomisd_build_info"

func newManagerMetrics(reg *telemetry.Registry) managerMetrics {
	return managerMetrics{
		submitted:      reg.Counter("radiomisd_jobs_submitted_total", "Accepted job submissions, including cache and dedup hits."),
		executed:       reg.Counter("radiomisd_jobs_executed_total", "Jobs that actually started running a simulation."),
		cacheHits:      reg.Counter("radiomisd_jobs_cache_hits_total", "Submissions answered from the result cache."),
		dedupHits:      reg.Counter("radiomisd_jobs_dedup_hits_total", "Submissions coalesced onto an identical in-flight job."),
		done:           reg.Counter("radiomisd_jobs_done_total", "Jobs finished successfully."),
		failed:         reg.Counter("radiomisd_jobs_failed_total", "Jobs finished with an error."),
		canceled:       reg.Counter("radiomisd_jobs_canceled_total", "Jobs canceled before or during execution."),
		queueRejected:  reg.Counter("radiomisd_queue_rejected_total", "Submissions rejected because the job queue was full."),
		queueDepth:     reg.Gauge("radiomisd_queue_depth", "Jobs currently waiting in the queue."),
		cacheEntries:   reg.Gauge("radiomisd_cache_entries", "Entries currently in the result cache."),
		workers:        reg.Gauge("radiomisd_workers", "Configured job executor count."),
		queueWait:      reg.Histogram("radiomisd_job_queue_wait_seconds", "Time jobs spent queued before starting."),
		runDur:         reg.Histogram("radiomisd_job_run_seconds", "Wall-clock execution time of finished jobs."),
		cacheAge:       reg.Histogram("radiomisd_result_cache_age_seconds", "Age of cached results when served."),
		trials:         reg.Counter(harness.MetricTrialsTotal, "Completed harness trials across all jobs."),
		laneTrials:     reg.Counter(MetricEngineLaneTrials, metricEngineLaneTrialsHelp),
		trialDur:       reg.Histogram(harness.MetricTrialSeconds, "Wall-clock duration of one harness trial."),
		lanesOccupied:  reg.CountHistogram(MetricEngineLanesOccupied, metricEngineLanesOccupiedHelp),
		scalarFallback: reg.CounterVec(MetricEngineScalarFallback, metricEngineScalarFallbackHelp, "reason"),
	}
}

// registerBuildInfo exposes the binary's build identity on reg as the
// constant-1 MetricBuildInfo gauge. Idempotent per process (the labels are
// derived from the binary itself, so re-registration always agrees).
func registerBuildInfo(reg *telemetry.Registry) {
	bi := ReadBuildInfo()
	reg.LabeledGauge(MetricBuildInfo, "Build identity of the running radiomisd binary (value is always 1).",
		telemetry.Label{Key: "version", Value: bi.Version},
		telemetry.Label{Key: "revision", Value: bi.Revision},
		telemetry.Label{Key: "goVersion", Value: bi.GoVersion},
	).Set(1)
}

// New starts a manager with opts.Workers executor goroutines. With a
// Store, the WAL is replayed first: recovered jobs are re-enqueued ahead
// of new submissions (the queue is grown to hold them all) and the
// manager only reports Ready once replay is complete. Call Shutdown to
// stop it (and close the store).
func New(opts Options) *Manager {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.New()
	}

	var replayed []*store.JobRecord
	queueCap := opts.QueueDepth
	if opts.Store != nil {
		replayed = opts.Store.Jobs()
		pending := 0
		for _, rec := range replayed {
			if !isTerminal(rec.State) {
				pending++
			}
		}
		if queueCap < pending {
			queueCap = pending
		}
	}

	m := &Manager{
		opts:       opts,
		rootCtx:    ctx,
		rootCancel: cancel,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		cache:      newLRUCache[*JobResult](opts.CacheSize),
		queue:      make(chan *Job, queueCap),
		reg:        reg,
		met:        newManagerMetrics(reg),
		sched:      newScheduler(opts.CacheSize, reg),
	}
	registerBuildInfo(reg)
	if len(replayed) > 0 {
		n := m.recover(replayed)
		opts.Logger.Info("wal replay complete",
			"jobs", len(replayed), "requeued", n, "tornTail", opts.Store.TornTail())
	}
	m.ready.Store(true)
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Registry returns the daemon-wide telemetry registry behind
// GET /metrics, so collaborating subsystems can register their
// instrument families on it.
func (m *Manager) Registry() *telemetry.Registry { return m.reg }

// Job is one submitted simulation run.
type Job struct {
	id          string
	key         string
	req         JobRequest
	cached      bool
	submittedAt time.Time

	ctx    context.Context
	cancel context.CancelFunc

	// span is the job's umbrella span (submit → terminal state), parented
	// under the submitting request's span; nil when the manager has no
	// tracer. traceID caches its trace as lowercase hex for statuses,
	// event lines, and log records. Both are written once at creation,
	// before the job is published, and read-only after — no lock needed.
	span    *trace.Span
	traceID string

	// reg is the job's private telemetry registry, installed on the
	// execution context so the harness feeds per-trial timings into it.
	// Written by run() before execution and read by finish() after, on the
	// same worker goroutine — no lock needed. finish() drops it once folded
	// into the daemon registry: finished jobs stay in the manager, and
	// each registry's histograms would otherwise stay with them.
	reg *telemetry.Registry

	// runSpan covers the execution phase only; like reg it is touched only
	// by the worker goroutine that runs the job.
	runSpan *trace.Span

	mu              sync.Mutex // guards the mutable fields below
	state           string
	startedAt       time.Time
	finishedAt      time.Time
	errMsg          string
	result          *JobResult
	cancelRequested bool
	events          [][]byte
	notify          chan struct{} // closed and replaced on every event append

	done chan struct{} // closed when the job reaches a terminal state
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns a wire-format snapshot of the job.
func (j *Job) Status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		Schema:      SchemaVersion,
		ID:          j.id,
		State:       j.state,
		Cached:      j.cached,
		TraceID:     j.traceID,
		Request:     j.req,
		SubmittedAt: j.submittedAt,
		Error:       j.errMsg,
		Result:      j.result,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
		qw := durationMs(j.startedAt.Sub(j.submittedAt))
		st.QueueWaitMs = &qw
		run := durationMs(time.Since(j.startedAt)) // still running: elapsed so far
		if !j.finishedAt.IsZero() {
			run = durationMs(j.finishedAt.Sub(j.startedAt))
		}
		st.RunMs = &run
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	return st
}

// Events returns the JSONL event lines from index `from` on, a channel
// closed when further events arrive, and whether the job is terminal (no
// more events will ever arrive once the returned slice is consumed).
func (j *Job) Events(from int) (lines [][]byte, updated <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		lines = j.events[from:]
	}
	return lines, j.notify, isTerminal(j.state)
}

func isTerminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// appendEventLocked marshals and records ev; callers hold j.mu.
func (j *Job) appendEventLocked(ev any) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	j.events = append(j.events, b)
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendEvent records a progress event (called from worker goroutines).
func (j *Job) appendEvent(ev any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(ev)
}

// setStateLocked transitions the job and records the state event in one
// critical section, so event readers never observe a terminal state with
// the final event missing. Callers hold j.mu.
func (j *Job) setStateLocked(state, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	now := time.Now()
	switch state {
	case StateRunning:
		j.startedAt = now
	case StateDone, StateFailed, StateCanceled:
		j.finishedAt = now
	}
	j.appendEventLocked(stateEvent{Ev: "state", State: state, Error: errMsg, TraceID: j.traceID})
	if isTerminal(state) {
		close(j.done)
	}
}

// logArgs returns the job's standing log attributes (jobId, and traceId
// when the job is traced) followed by extra.
func (j *Job) logArgs(extra ...any) []any {
	args := make([]any, 0, 4+len(extra))
	args = append(args, "jobId", j.id)
	if j.traceID != "" {
		args = append(args, "traceId", j.traceID)
	}
	return append(args, extra...)
}

// newJobLocked allocates a job in the queued state; callers hold m.mu.
// With tracing on, the job's umbrella span starts here, parented under
// whatever span rides the submitting request's context — so an inbound
// traceparent header becomes the job's trace ID.
func (m *Manager) newJobLocked(ctx context.Context, req JobRequest, key string) *Job {
	m.seq++
	jctx, cancel := context.WithCancel(m.rootCtx)
	j := &Job{
		id:          fmt.Sprintf("j%06d", m.seq),
		key:         key,
		req:         req,
		submittedAt: time.Now(),
		ctx:         jctx,
		cancel:      cancel,
		state:       StateQueued,
		notify:      make(chan struct{}),
		done:        make(chan struct{}),
	}
	if tr := m.opts.Tracer; tr != nil {
		j.span = tr.StartSpan(trace.SpanFromContext(ctx).Context(), "job", j.submittedAt,
			trace.A("jobId", j.id), trace.A("kind", req.Kind))
		j.traceID = j.span.Trace.String()
	}
	j.mu.Lock()
	j.appendEventLocked(stateEvent{Ev: "state", State: StateQueued, TraceID: j.traceID})
	j.mu.Unlock()
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	return j
}

// Submit validates and enqueues a job. Identical resubmissions are served
// from the result cache (a new job born in the done state with Cached set)
// or coalesced onto the identical in-flight job (single-flight; created is
// false). ErrQueueFull signals backpressure: the caller should retry later.
// ctx is the submitting request's context: a span riding it (the HTTP
// layer's per-request root) becomes the parent of the job's span tree; the
// job's own lifetime is not bound by ctx.
func (m *Manager) Submit(ctx context.Context, req JobRequest) (job *Job, created bool, err error) {
	if err := req.Normalize(); err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	key := req.Key()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, false, ErrDraining
	}
	m.met.submitted.Inc()

	lookup := time.Now()
	if res, age, ok := m.cache.Get(key); ok {
		m.met.cacheHits.Inc()
		m.met.cacheAge.ObserveDuration(age)
		j := m.newJobLocked(ctx, req, key)
		if tr := m.opts.Tracer; tr != nil {
			tr.Emit(j.span.Context(), "job.cache", lookup, time.Now(), trace.A("hit", true))
			j.span.SetAttr("cached", true)
		}
		j.mu.Lock()
		j.cached = true
		j.result = res
		j.startedAt = time.Now()
		j.setStateLocked(StateDone, "")
		j.mu.Unlock()
		m.retireLocked(j)
		j.span.End()
		m.opts.Logger.Info("job served from cache", j.logArgs("kind", req.Kind)...)
		return j, true, nil
	}
	if j, ok := m.inflight[key]; ok {
		m.met.dedupHits.Inc()
		m.opts.Logger.Info("submission coalesced onto in-flight job", j.logArgs()...)
		return j, false, nil
	}

	j := m.newJobLocked(ctx, req, key)
	if tr := m.opts.Tracer; tr != nil {
		tr.Emit(j.span.Context(), "job.cache", lookup, time.Now(), trace.A("hit", false))
	}
	select {
	case m.queue <- j:
	default:
		m.met.queueRejected.Inc()
		// Unregister: the job never existed as far as clients can tell.
		delete(m.jobs, j.id)
		m.order = m.order[:len(m.order)-1]
		j.cancel()
		j.span.SetAttr("error", "queue full")
		j.span.End()
		m.opts.Logger.Warn("job rejected: queue full", "kind", req.Kind)
		return nil, false, ErrQueueFull
	}
	if err := m.persistSubmit(j); err != nil {
		// Roll back: a job the WAL cannot remember must not be accepted.
		delete(m.jobs, j.id)
		m.order = m.order[:len(m.order)-1]
		// The worker pool may already have picked the job up; mark it
		// canceled so run() drops it without executing.
		j.mu.Lock()
		j.setStateLocked(StateCanceled, "wal append failed")
		j.mu.Unlock()
		j.cancel()
		j.span.SetAttr("error", "wal append failed")
		j.span.End()
		m.opts.Logger.Error("job rejected: wal append failed", "kind", req.Kind, "error", err.Error())
		return nil, false, err
	}
	m.inflight[key] = j
	m.opts.Logger.Info("job queued", j.logArgs("kind", req.Kind)...)
	return j, true, nil
}

// Job returns the job with the given ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// evicted reports whether id names a job this manager issued and has
// since evicted from its finished-job history. Job IDs are sequential, so
// an issued ID the manager no longer holds was evicted (or was rejected at
// submission, and never reached a client); an ID never issued is not.
func (m *Manager) evicted(id string) bool {
	seq, ok := parseJobID(id)
	if !ok || seq < 1 || id != fmt.Sprintf("j%06d", seq) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, kept := m.jobs[id]
	return seq <= m.seq && !kept
}

// retireLocked records that j reached a terminal state and evicts the
// jobs that finished first once more than maxFinishedJobs are kept.
// Callers hold m.mu.
func (m *Manager) retireLocked(j *Job) {
	m.finished = append(m.finished, j.id)
	for len(m.finished) > maxFinishedJobs {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
	// Evicted IDs leave order in one pass once they make up half of it,
	// so GET /v1/jobs stays bounded at amortized O(1) per eviction.
	if len(m.order) > 2*len(m.jobs) {
		kept := m.order[:0]
		for _, id := range m.order {
			if _, ok := m.jobs[id]; ok {
				kept = append(kept, id)
			}
		}
		clear(m.order[len(kept):])
		m.order = kept
	}
}

// Jobs returns status snapshots of every kept job in submission order.
func (m *Manager) Jobs() []*JobStatus {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]*JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// Cancel requests cancellation of a job. A queued job is canceled
// immediately; a running job has its context cancelled, which aborts the
// radio engine at the next round boundary. Terminal jobs are unaffected.
func (m *Manager) Cancel(id string) (*Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, false
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.cancelRequested = true
		j.setStateLocked(StateCanceled, "canceled before start")
		m.persistState(j, StateCanceled, "canceled before start", nil)
		delete(m.inflight, j.key)
		m.retireLocked(j)
		m.met.canceled.Inc()
		j.span.SetAttr("canceled", true)
		j.span.End()
		m.opts.Logger.Info("job canceled before start", j.logArgs()...)
	case StateRunning:
		j.cancelRequested = true
	}
	j.mu.Unlock()
	m.mu.Unlock()
	j.cancel()
	return j, true
}

// Metrics returns a snapshot of the manager's counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Metrics{
		Submitted:     m.met.submitted.Value(),
		Executed:      m.met.executed.Value(),
		CacheHits:     m.met.cacheHits.Value(),
		DedupHits:     m.met.dedupHits.Value(),
		Done:          m.met.done.Value(),
		Failed:        m.met.failed.Value(),
		Canceled:      m.met.canceled.Value(),
		QueueRejected: m.met.queueRejected.Value(),
		QueueDepth:    len(m.queue),
		CacheLen:      m.cache.Len(),
		Workers:       m.opts.Workers,
	}
}

// refreshGauges updates the point-in-time gauges that are computed on
// read rather than maintained on write.
func (m *Manager) refreshGauges() {
	m.mu.Lock()
	m.met.queueDepth.Set(int64(len(m.queue)))
	m.met.cacheEntries.Set(int64(m.cache.Len()))
	m.met.workers.Set(int64(m.opts.Workers))
	m.mu.Unlock()
}

// WriteMetrics refreshes the point-in-time gauges and renders the daemon
// registry in the Prometheus text exposition format — the body of
// GET /metrics (serve it with Content-Type telemetry.ContentType).
func (m *Manager) WriteMetrics(w io.Writer) error {
	m.refreshGauges()
	return m.reg.WritePrometheus(w)
}

// Shutdown drains the manager: no new submissions are accepted, queued and
// running jobs are given until ctx expires to finish, then the remainder
// are aborted through their contexts. It returns ctx.Err() if the deadline
// forced an abort.
func (m *Manager) Shutdown(ctx context.Context) error {
	defer m.sched.close() // release idle schedule planners (idempotent)
	m.ready.Store(false)  // /readyz flips before the queue closes
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.draining = true
	close(m.queue)
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		m.rootCancel() // abort in-flight engine runs
		<-drained
		err = ctx.Err()
	}
	if m.opts.Store != nil {
		m.mu.Lock()
		if cerr := m.opts.Store.Close(); cerr != nil && err == nil {
			err = cerr
		}
		m.mu.Unlock()
	}
	return err
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

func (m *Manager) run(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled while waiting; Cancel already finalized it.
		j.mu.Unlock()
		return
	}
	j.setStateLocked(StateRunning, "")
	queueWait := j.startedAt.Sub(j.submittedAt)
	j.mu.Unlock()

	m.persistRunning(j)
	m.met.executed.Inc()
	m.met.queueWait.ObserveDuration(queueWait)

	// Stream harness/sweep progress into the job's event log, and give the
	// job a private telemetry registry: the harness observes per-trial wall
	// time into it, the experiment result's perf section summarizes it, and
	// finish() folds it into the daemon-wide registry behind GET /metrics.
	j.reg = telemetry.New()
	ctx := obs.ContextWithProgress(j.ctx, func(ev obs.ProgressEvent) {
		j.appendEvent(progressEvent{Ev: "progress", Stage: ev.Stage, Done: ev.Done, Total: ev.Total, X: ev.X, TraceID: j.traceID})
	})
	ctx = telemetry.WithRegistry(ctx, j.reg)
	if tr := m.opts.Tracer; tr != nil {
		// The queue wait is over, so it is a span whose bounds are already
		// known; the execution phase starts now and stays open on the
		// context, parenting the harness and engine spans below it.
		tr.Emit(j.span.Context(), "job.queue", j.submittedAt, j.startedAt)
		j.runSpan = tr.StartSpan(j.span.Context(), "job.run", j.startedAt, trace.A("jobId", j.id))
		ctx = trace.WithTracer(ctx, tr)
		ctx = trace.ContextWithSpan(ctx, j.runSpan)
	}
	// The context call sites a span-carrying ctx: the logx handler stamps
	// traceId/spanId itself, so only the job fields ride along explicitly.
	m.opts.Logger.InfoContext(ctx, "job started",
		"jobId", j.id, "kind", j.req.Kind, "queueWaitMs", durationMs(queueWait))
	res, err := execute(ctx, j.req)
	m.finish(j, res, err)
}

func (m *Manager) finish(j *Job, res *JobResult, err error) {
	// Fold the job's private trial telemetry into the daemon registry —
	// generically, family by family, so any family the harness or engine
	// recorded (trial timings, lane occupancy, fallback reasons) retires
	// into GET /metrics without per-metric plumbing here.
	if j.reg != nil {
		if merr := m.reg.Merge(j.reg); merr != nil {
			m.opts.Logger.Warn("job telemetry fold failed", j.logArgs("error", merr.Error())...)
		}
		j.reg = nil
	}

	m.mu.Lock()
	delete(m.inflight, j.key)
	j.mu.Lock()
	// Record how long the run took and emit the perf event before the
	// terminal state event, so event streams still end on "state".
	if !j.startedAt.IsZero() {
		runDur := time.Since(j.startedAt)
		m.met.runDur.ObserveDuration(runDur)
		j.appendEventLocked(perfEvent{
			Ev:          "perf",
			QueueWaitMs: durationMs(j.startedAt.Sub(j.submittedAt)),
			RunMs:       durationMs(runDur),
			TraceID:     j.traceID,
		})
	}
	switch {
	case err == nil:
		m.cache.Put(j.key, res)
		m.met.done.Inc()
		j.result = res
		j.setStateLocked(StateDone, "")
	case j.cancelRequested || errors.Is(err, context.Canceled):
		m.met.canceled.Inc()
		j.setStateLocked(StateCanceled, err.Error())
	default:
		m.met.failed.Inc()
		j.setStateLocked(StateFailed, err.Error())
	}
	state, errMsg := j.state, j.errMsg
	var persisted *JobResult
	if state == StateDone {
		persisted = j.result
	}
	j.mu.Unlock()
	m.persistState(j, state, errMsg, persisted)
	m.retireLocked(j)
	m.mu.Unlock()
	if err != nil {
		j.runSpan.SetAttr("error", err.Error())
	}
	j.runSpan.End()
	j.span.SetAttr("state", state)
	j.span.End()
	if errMsg != "" {
		m.opts.Logger.Warn("job finished", j.logArgs("state", state, "error", errMsg)...)
	} else {
		m.opts.Logger.Info("job finished", j.logArgs("state", state)...)
	}
	j.cancel() // release the job context's resources
}

// execute runs the simulation described by a normalized request.
func execute(ctx context.Context, req JobRequest) (*JobResult, error) {
	switch req.Kind {
	case KindExperiment:
		def, err := experiments.Lookup(req.Experiment)
		if err != nil {
			return nil, err
		}
		cfg := experiments.Config{Seed: req.Seed, Quick: req.Quick}
		start := time.Now()
		rep, err := def.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		// Route the report through the benchsuite serializer so the job's
		// record matches `benchsuite -json` field for field, including the
		// perf section when the job context carries a telemetry registry.
		jr := experiments.NewJSONReport(cfg)
		jr.Add(rep, time.Since(start), experiments.PerfFromRegistry(telemetry.FromContext(ctx)))
		return &JobResult{Experiment: &jr.Experiments[0]}, nil

	case KindSolve:
		fam, err := graph.ParseFamily(req.Family)
		if err != nil {
			return nil, err
		}
		hopts := harness.Options{Trials: req.Trials, Seed: req.Seed, SeedOffset: req.TrialOffset}
		var agg *harness.Aggregate
		engine := ResolveEngine(req)
		if engine == mis.EngineLockstep {
			// A seed-invariant family generates the same graph at every
			// trial seed, so the whole batch can share one topology (and
			// parameter set) and run as bit-lanes of the lockstep engine.
			// Per-trial rows are bit-identical to the scalar path.
			g := graph.Generate(fam, req.N, rng.New(req.Seed))
			p := mis.ParamsDefault(g.N(), g.MaxDegree())
			reg := telemetry.FromContext(ctx)
			agg, err = harness.RepeatBatches(ctx, hopts, radio.MaxLanes,
				func(ctx context.Context, _ int, seeds []uint64) ([]harness.Metrics, error) {
					// Each lane's Result lives in reused engine buffers, so
					// it is reduced to its metric row as it is handed over.
					ms := make([]harness.Metrics, 0, len(seeds))
					err := mis.RunManyFunc(req.Algorithm, g, p,
						mis.ManyOpts{Seeds: seeds, Ctx: ctx, Engine: mis.EngineLockstep},
						func(_ int, res *mis.Result) error {
							ms = append(ms, solveTrialMetrics(g, res, false))
							return nil
						})
					if err != nil {
						return nil, err
					}
					if reg != nil {
						reg.Counter(MetricEngineLaneTrials, metricEngineLaneTrialsHelp).Add(uint64(len(ms)))
						reg.CountHistogram(MetricEngineLanesOccupied, metricEngineLanesOccupiedHelp).Observe(uint64(len(ms)))
					}
					return ms, nil
				})
		} else {
			if reg := telemetry.FromContext(ctx); reg != nil {
				reg.CounterVec(MetricEngineScalarFallback, metricEngineScalarFallbackHelp, "reason").
					With(scalarFallbackReason(req)).Add(uint64(req.Trials))
			}
			var fp faults.Profile
			if req.Faults != nil {
				fp = *req.Faults
			}
			agg, err = harness.Repeat(ctx, hopts,
				func(ctx context.Context, seed uint64) (harness.Metrics, error) {
					g := graph.Generate(fam, req.N, rng.New(seed))
					p := mis.ParamsDefault(g.N(), g.MaxDegree())
					res, err := mis.SolveWithFaults(ctx, req.Algorithm, g, p, seed, fp)
					if err != nil {
						return nil, err
					}
					return solveTrialMetrics(g, res, req.Faults != nil), nil
				})
		}
		if err != nil {
			return nil, err
		}
		sr := &SolveResult{
			Algorithm: req.Algorithm,
			Family:    req.Family,
			N:         req.N,
			Trials:    req.Trials,
			Faults:    req.Faults,
			Engine:    engine,
			Metrics:   make(map[string]stats.Summary),
		}
		for _, name := range agg.Names() {
			sr.Metrics[name] = agg.Summary(name)
		}
		if req.Rows {
			sr.Rows = trialRows(req, agg)
		}
		return &JobResult{Solve: sr}, nil
	}
	return nil, fmt.Errorf("server: unexecutable kind %q", req.Kind)
}

// solveTrialMetrics converts one trial's MIS result into the solve job's
// metric row. Both engines route through it, so lockstep and scalar jobs
// report the same metric names with bit-identical values.
func solveTrialMetrics(g *graph.Graph, res *mis.Result, faulty bool) harness.Metrics {
	met := harness.Metrics{
		"maxEnergy": float64(res.MaxEnergy()),
		"avgEnergy": res.AvgEnergy(),
		"rounds":    float64(res.Rounds),
	}
	if !faulty {
		// Clean jobs keep the historical strict-MIS criterion
		// (CheckSurvivors coincides with it when nothing crashes).
		success := 1.0
		if res.Check(g) != nil {
			success = 0
		}
		met["success"] = success
		return met
	}
	success := 1.0
	if res.CheckSurvivors(g) != nil {
		success = 0
	}
	met["success"] = success
	met["violations"] = float64(res.IndependenceViolations(g))
	met["uncovered"] = float64(res.UncoveredOut(g))
	met["crashed"] = float64(res.CrashCount())
	restarts := 0.0
	if res.Faults != nil {
		restarts = float64(res.Faults.Restarts)
	}
	met["restarts"] = restarts
	return met
}

// trialRows flattens an aggregate into per-trial rows in global trial
// order.
func trialRows(req JobRequest, agg *harness.Aggregate) []TrialRow {
	rows := make([]TrialRow, req.Trials)
	for i := range rows {
		global := req.TrialOffset + i
		rows[i] = TrialRow{
			Trial:   global,
			Seed:    rng.Mix(req.Seed, uint64(global)),
			Metrics: make(map[string]float64),
		}
	}
	for _, name := range agg.Names() {
		vals := agg.Metric(name)
		if len(vals) != req.Trials {
			continue // metric missing for some trial; leave it out of rows
		}
		for i, v := range vals {
			rows[i].Metrics[name] = v
		}
	}
	return rows
}
