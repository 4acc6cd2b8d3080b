package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"radiomis/internal/telemetry"
	"radiomis/internal/trace"
)

// HandlerOption customizes NewHandler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	pprof bool
}

// WithPprof mounts Go's net/http/pprof profiling endpoints under
// GET /debug/pprof/. Off by default: the profile endpoints expose stack
// traces and can run CPU profiles on demand, so they are opt-in
// (radiomisd's -pprof flag) and belong behind the same trust boundary as
// the rest of the API.
func WithPprof() HandlerOption {
	return func(c *handlerConfig) { c.pprof = true }
}

// NewHandler returns the radiomisd HTTP API:
//
//	POST   /v1/jobs             submit a job (202 created, 200 cache/dedup hit,
//	                            400 invalid, 413 body over 1 MiB, 429 queue
//	                            full, 503 draining)
//	GET    /v1/jobs             list the queued, running and newest finished jobs
//	GET    /v1/jobs/{id}        job status and, when done, its result
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events stream progress as JSON lines (follows until
//	                            the job is terminal; idle streams carry
//	                            periodic {"ev":"heartbeat"} keep-alives)
//
// The three /v1/jobs/{id} routes answer 404 for an ID never issued and
// 410 Gone for a finished job evicted from the history, which keeps the
// newest 1,024 finished jobs.
//
//	POST   /v1/schedule         peel a conflict graph into independent batches,
//	                            synchronously (200 plan, 400 invalid, 413 body
//	                            over 16 MiB); identical requests replay from an
//	                            LRU plan cache
//	GET    /v1/algorithms       discovery: registered algorithms + param knobs
//	GET    /healthz             liveness probe + build information
//	GET    /readyz              readiness probe (503 while replaying the WAL
//	                            at startup or draining at shutdown)
//	GET    /metrics             Prometheus text exposition (format 0.0.4)
//	GET    /debug/traces        recent spans (json; ?format=chrome|otlp;
//	                            ?trace=<id> filters to one trace tree)
//	GET    /debug/pprof/...     Go profiling endpoints (only with WithPprof)
//
// When the manager has a tracer, every /v1 request runs under a root span:
// an inbound W3C traceparent header continues the caller's trace, the
// response echoes a traceparent identifying the request span, and job
// submissions hang their whole span tree (queue wait, execution, harness
// trials, engine round slices) beneath it.
func NewHandler(m *Manager, opts ...HandlerOption) http.Handler {
	var cfg handlerConfig
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(m, w, r)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, JobList{Schema: SchemaVersion, Jobs: m.Jobs()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeMissingJob(m, w, r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Cancel(r.PathValue("id"))
		if !ok {
			writeMissingJob(m, w, r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		handleEvents(m, w, r)
	})
	mux.HandleFunc("POST /v1/schedule", func(w http.ResponseWriter, r *http.Request) {
		handleSchedule(m, w, r)
	})
	mux.HandleFunc("GET /v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, AlgorithmCatalog())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, healthResponse())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness (/healthz) says "the process is up"; readiness says
		// "route work here". They split so an ingress stops sending jobs
		// to a daemon that is still replaying its WAL or has begun
		// draining — before it actually goes away.
		ready, reason := m.Ready()
		resp := ReadyResponse{Status: "ready", Schema: SchemaVersion}
		status := http.StatusOK
		if !ready {
			resp.Status, status = reason, http.StatusServiceUnavailable
		}
		writeJSON(w, status, resp)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", telemetry.ContentType)
		m.WriteMetrics(w)
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		handleTraces(m, w, r)
	})
	if cfg.pprof {
		// pprof.Index dispatches /debug/pprof/{heap,goroutine,...} itself,
		// so the trailing-slash pattern covers every named profile.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return traceMiddleware(m, mux)
}

// traceMiddleware wraps the API mux with per-request observability: a
// root span per /v1 request (continuing an inbound W3C traceparent when
// present, echoed back on the response) and one structured access-log
// record per request. Probe and debug endpoints (/healthz, /metrics,
// /debug/...) stay untraced and unlogged — they are scraped continuously
// and would drown both the span ring and the log. With no tracer the
// middleware only logs.
func traceMiddleware(m *Manager, next http.Handler) http.Handler {
	tr := m.opts.Tracer
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ctx := r.Context()
		var sp *trace.Span
		if tr != nil {
			parent, _ := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
			sp = tr.StartSpan(parent, "http.request", start,
				trace.A("method", r.Method), trace.A("path", r.URL.Path))
			ctx = trace.WithTracer(ctx, tr)
			ctx = trace.ContextWithSpan(ctx, sp)
			w.Header().Set(trace.TraceparentHeader, sp.Context().Traceparent())
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(sw, r)
		sp.SetAttr("status", sw.status)
		sp.End()
		m.opts.Logger.InfoContext(ctx, "http request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "durationMs", durationMs(time.Since(start)))
	})
}

// statusWriter records the response status for the access log and span.
// It forwards Flush so the event-stream handler keeps streaming through
// the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Request body limits, one per endpoint that reads a body. A body past
// its limit is refused with 413 as soon as the limit is read, so no
// request makes the daemon buffer more. A job request is a few hundred
// bytes of JSON; a schedule request carries its edge list, about 15
// bytes an edge, so its limit admits about a million edges.
const (
	maxJobBodyBytes      = 1 << 20
	maxScheduleBodyBytes = 16 << 20
)

// writeBodyError answers a request whose body failed to read or decode:
// 413 with the limit when the body ran past it, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds the limit of %d bytes", tooLarge.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "decoding request: %v", err)
}

func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeBodyError(w, err)
		return
	}
	job, created, err := m.Submit(r.Context(), req)
	switch {
	case errors.Is(err, ErrBadRequest):
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	status := http.StatusOK // cache hit or coalesced onto an in-flight job
	st := job.Status()
	if created && !st.Cached {
		status = http.StatusAccepted
	}
	writeJSON(w, status, st)
}

// handleSchedule serves POST /v1/schedule: decode, plan synchronously,
// respond. No job record is created — the endpoint is built for thousands
// of small-graph calls per second, where the job machinery's bookkeeping
// would dominate the planning work.
func handleSchedule(m *Manager, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxScheduleBodyBytes))
	var req ScheduleRequest
	if err == nil {
		req, err = decodeScheduleRequest(body)
	}
	if err != nil {
		writeBodyError(w, err)
		return
	}
	res, err := m.Schedule(r.Context(), req)
	switch {
	case errors.Is(err, ErrBadRequest):
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// writeMissingJob answers a request for a job the manager does not hold:
// 410 Gone for one evicted from the finished-job history, 404 otherwise.
func writeMissingJob(m *Manager, w http.ResponseWriter, id string) {
	if m.evicted(id) {
		writeError(w, http.StatusGone, "job %q was evicted: the daemon keeps only the newest %d finished jobs", id, maxFinishedJobs)
		return
	}
	writeError(w, http.StatusNotFound, "unknown job %q", id)
}

func handleEvents(m *Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Job(r.PathValue("id"))
	if !ok {
		writeMissingJob(m, w, r.PathValue("id"))
		return
	}
	heartbeatLine, _ := json.Marshal(heartbeatEvent{Ev: "heartbeat"})
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Heartbeats keep idle streams distinguishable from dead connections:
	// every EventHeartbeat a {"ev":"heartbeat"} line goes out whether or
	// not job events arrived in between (each line is self-contained JSON,
	// so consumers are unaffected).
	var heartbeat <-chan time.Time
	if m.opts.EventHeartbeat > 0 {
		ticker := time.NewTicker(m.opts.EventHeartbeat)
		defer ticker.Stop()
		heartbeat = ticker.C
	}
	next := 0
	for {
		lines, updated, terminal := j.Events(next)
		for _, line := range lines {
			w.Write(line)
			w.Write([]byte("\n"))
		}
		next += len(lines)
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-updated:
		case <-heartbeat:
			w.Write(heartbeatLine)
			w.Write([]byte("\n"))
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleTraces serves the tracer's recent-span ring: by default a JSON
// document of span records (newest last), with ?format=chrome for a
// chrome://tracing / Perfetto file and ?format=otlp for OTLP/JSON.
// ?trace=<32-hex-id> restricts every format to one trace tree.
func handleTraces(m *Manager, w http.ResponseWriter, r *http.Request) {
	tr := m.opts.Tracer
	if tr == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (start radiomisd without -trace-off)")
		return
	}
	var filter trace.TraceID
	if q := r.URL.Query().Get("trace"); q != "" {
		id, ok := trace.ParseTraceID(q)
		if !ok {
			writeError(w, http.StatusBadRequest, "invalid trace id %q (want 32 lowercase hex digits)", q)
			return
		}
		filter = id
	}
	spans := tr.Spans()
	if !filter.IsZero() {
		kept := spans[:0:0]
		for _, sp := range spans {
			if sp.Trace == filter {
				kept = append(kept, sp)
			}
		}
		spans = kept
	}
	switch format := r.URL.Query().Get("format"); format {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChrome(w, spans)
	case "otlp":
		w.Header().Set("Content-Type", "application/json")
		trace.WriteOTLP(w, "radiomisd", spans)
	case "", "json":
		writeJSON(w, http.StatusOK, traceList(tr, spans))
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json, chrome, or otlp)", format)
	}
}

// TraceList is the default response of GET /debug/traces.
type TraceList struct {
	Schema string `json:"schema"`
	// Ended is the total number of spans finished since startup; Capacity
	// is the ring size. Ended − len(Spans) spans have been evicted.
	Ended    uint64      `json:"ended"`
	Capacity int         `json:"capacity"`
	Spans    []TraceSpan `json:"spans"`
}

// TraceSpan is one retained span in wire form.
type TraceSpan struct {
	TraceID    string         `json:"traceId"`
	SpanID     string         `json:"spanId"`
	ParentID   string         `json:"parentSpanId,omitempty"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMs float64        `json:"durationMs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

func traceList(tr *trace.Tracer, spans []*trace.Span) TraceList {
	out := TraceList{
		Schema:   SchemaVersion,
		Ended:    tr.Ended(),
		Capacity: tr.Capacity(),
		Spans:    make([]TraceSpan, 0, len(spans)),
	}
	for _, sp := range spans {
		ts := TraceSpan{
			TraceID:    sp.Trace.String(),
			SpanID:     sp.ID.String(),
			Name:       sp.Name,
			Start:      sp.StartTime,
			DurationMs: durationMs(sp.Duration()),
		}
		if !sp.Parent.IsZero() {
			ts.ParentID = sp.Parent.String()
		}
		if len(sp.Attrs) > 0 {
			ts.Attrs = make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				ts.Attrs[a.Key] = a.Value
			}
		}
		out.Spans = append(out.Spans, ts)
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
