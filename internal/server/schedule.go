package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"strings"
	"sync"
	"time"

	"radiomis/internal/graph"
	"radiomis/internal/mis"
	"radiomis/internal/rng"
	"radiomis/internal/schedule"
	"radiomis/internal/telemetry"
	"radiomis/internal/trace"
)

// ScheduleRequest is the body of POST /v1/schedule: one conflict graph to
// peel into independent execution batches. The graph is either explicit
// (Edges over N vertices) or generated (Family + N at Seed), never both —
// Normalize clears Family when Edges are present.
type ScheduleRequest struct {
	// Algorithm names the per-layer MIS algorithm (default "linear", the
	// high-throughput sequential baseline; any registered algorithm works,
	// radio algorithms simulate each layer).
	Algorithm string `json:"algorithm,omitempty"`
	// Family is the generated conflict-graph family (default "gnp");
	// ignored when Edges is set.
	Family string `json:"family,omitempty"`
	// N is the number of vertices; required.
	N int `json:"n"`
	// Edges, when present, gives the conflict graph explicitly as vertex
	// pairs in [0, N).
	Edges [][2]int `json:"edges,omitempty"`
	// Seed makes the plan (and the generated graph) reproducible; part of
	// the cache key.
	Seed uint64 `json:"seed"`
}

// Normalize validates the request and rewrites it into canonical form, so
// equivalent requests hash to one cache key.
func (r *ScheduleRequest) Normalize() error {
	if r.Algorithm == "" {
		r.Algorithm = "linear"
	}
	if !mis.KnownAlgorithm(r.Algorithm) {
		return fmt.Errorf("unknown algorithm %q (known: %s; see GET /v1/algorithms)",
			r.Algorithm, strings.Join(mis.Algorithms(), ", "))
	}
	if r.N < 1 {
		return fmt.Errorf("n = %d, want ≥ 1", r.N)
	}
	if len(r.Edges) > 0 {
		r.Family = "" // canonical form: explicit graphs carry no family
		return nil
	}
	if r.Family == "" {
		r.Family = graph.FamilyGNP.String()
	}
	_, err := graph.ParseFamily(r.Family)
	return err
}

// Key returns the canonical cache key: the hex SHA-256 of an injective
// binary encoding of the normalized request — algorithm and family, each
// prefixed with its length, then n, seed, the edge count and every edge
// endpoint as varints. Absent and empty edge lists share a key. Call
// Normalize first. The plan cache lives only in memory, so the encoding
// may change between versions.
func (r ScheduleRequest) Key() string {
	h := sha256.New()
	var buf [512]byte
	b := appendKeyString(h, buf[:0], r.Algorithm)
	b = appendKeyString(h, b, r.Family)
	b = binary.AppendVarint(b, int64(r.N))
	b = binary.AppendUvarint(b, r.Seed)
	b = binary.AppendUvarint(b, uint64(len(r.Edges)))
	for _, e := range r.Edges {
		if len(b) > len(buf)-2*binary.MaxVarintLen64 {
			h.Write(b)
			b = b[:0]
		}
		b = binary.AppendVarint(b, int64(e[0]))
		b = binary.AppendVarint(b, int64(e[1]))
	}
	h.Write(b)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// appendKeyString appends s with its length prefix to the key encoding b,
// writing b and s straight to h when s does not fit in b's spare capacity.
func appendKeyString(h hash.Hash, b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	if len(s) > cap(b)-len(b) {
		h.Write(b)
		io.WriteString(h, s)
		return b[:0]
	}
	return append(b, s...)
}

// buildGraph materializes the request's conflict graph. Explicit edge
// lists are validated (range, self-loops, duplicates) and inserted in
// request order, which fixes every vertex's neighbour order and so the
// plan; generated graphs come from the family generator at the request
// seed.
func (r *ScheduleRequest) buildGraph() (*graph.Graph, error) {
	if len(r.Edges) > 0 {
		return graph.FromEdges(r.N, r.Edges)
	}
	fam, err := graph.ParseFamily(r.Family)
	if err != nil {
		return nil, err
	}
	return graph.Generate(fam, r.N, rng.New(r.Seed)), nil
}

// ScheduleResult is the response of POST /v1/schedule: the batch plan and
// its quality summary. Identical requests are served from an LRU keyed by
// the canonical request hash; Cached marks replays.
type ScheduleResult struct {
	Schema    string `json:"schema"`
	Algorithm string `json:"algorithm"`
	Family    string `json:"family,omitempty"`
	N         int    `json:"n"`
	Seed      uint64 `json:"seed"`
	Cached    bool   `json:"cached"`
	// Batches lists the plan's independent sets in execution order; every
	// vertex appears in exactly one batch.
	Batches [][]int        `json:"batches"`
	Stats   schedule.Stats `json:"stats"`
	// PlanMs is the planning wall time of the run that produced the plan
	// (the original run's, for cached replays).
	PlanMs float64 `json:"planMs"`
}

// scheduler is the manager's batch-scheduling serving state: a free list
// of warm planners (amortized scratch; a planner that ran a radio layer
// holds a radio.Pool, which Close hands back to the process-wide cache),
// its own result LRU, and the schedule metric instruments. Scheduling is
// synchronous — no queue, no job records — because the workload is
// thousands of small-graph calls per second, not long simulations.
type scheduler struct {
	mu    sync.Mutex
	cache *lruCache[*ScheduleResult]
	free  []*schedule.Planner
	met   scheduleMetrics
}

// maxIdlePlanners bounds the free list; excess planners from a concurrency
// burst are closed instead of retained.
const maxIdlePlanners = 8

type scheduleMetrics struct {
	requests, cacheHits *telemetry.Counter
	planDur             *telemetry.Histogram
	batches, batchSize  *telemetry.Histogram
}

func newScheduler(cacheSize int, reg *telemetry.Registry) *scheduler {
	return &scheduler{
		cache: newLRUCache[*ScheduleResult](cacheSize),
		met: scheduleMetrics{
			requests:  reg.Counter("radiomisd_schedule_requests_total", "POST /v1/schedule requests accepted (including cache hits)."),
			cacheHits: reg.Counter("radiomisd_schedule_cache_hits_total", "Schedule requests answered from the plan cache."),
			planDur:   reg.Histogram("radiomisd_schedule_seconds", "Wall-clock planning time of executed schedule requests."),
			batches:   reg.CountHistogram("radiomisd_schedule_batches", "Batch count (critical path) per computed plan."),
			batchSize: reg.CountHistogram("radiomisd_schedule_batch_size", "Vertices per batch across computed plans."),
		},
	}
}

func (s *scheduler) getPlanner() *schedule.Planner {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		pl := s.free[n-1]
		s.free = s.free[:n-1]
		return pl
	}
	return schedule.NewPlanner()
}

func (s *scheduler) putPlanner(pl *schedule.Planner) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) < maxIdlePlanners {
		s.free = append(s.free, pl)
		return
	}
	pl.Close()
}

// close hands every idle planner's radio pool back to the process-wide
// cache. Idempotent.
func (s *scheduler) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pl := range s.free {
		pl.Close()
	}
	s.free = nil
}

// Schedule computes (or replays from cache) the batch plan for one
// conflict graph, synchronously on the calling goroutine. Invalid requests
// return an error wrapping ErrBadRequest; ctx bounds the planning run.
// With tracing on, the plan run is emitted as a "schedule.plan" span under
// the request's span.
func (m *Manager) Schedule(ctx context.Context, req ScheduleRequest) (*ScheduleResult, error) {
	if err := req.Normalize(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	key := req.Key()
	s := m.sched
	s.met.requests.Inc()

	s.mu.Lock()
	cached, _, ok := s.cache.Get(key)
	s.mu.Unlock()
	if ok {
		s.met.cacheHits.Inc()
		replay := *cached // shallow copy; Batches is shared and read-only
		replay.Cached = true
		return &replay, nil
	}

	g, err := req.buildGraph()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}

	pl := s.getPlanner()
	start := time.Now()
	plan, err := pl.Batches(g, schedule.Options{Algorithm: req.Algorithm, Seed: req.Seed, Ctx: ctx})
	if err != nil {
		s.putPlanner(pl)
		return nil, err
	}
	dur := time.Since(start)
	res := &ScheduleResult{
		Schema:    SchemaVersion,
		Algorithm: req.Algorithm,
		Family:    req.Family,
		N:         req.N,
		Seed:      req.Seed,
		Batches:   plan.Batches(), // deep copy: safe after the planner is reused
		Stats:     plan.Stats(),
		PlanMs:    durationMs(dur),
	}
	s.putPlanner(pl)

	s.met.planDur.ObserveDuration(dur)
	s.met.batches.Observe(uint64(res.Stats.Batches))
	for _, b := range res.Batches {
		s.met.batchSize.Observe(uint64(len(b)))
	}
	if tr := m.opts.Tracer; tr != nil {
		tr.Emit(trace.SpanFromContext(ctx).Context(), "schedule.plan", start, time.Now(),
			trace.A("algorithm", req.Algorithm), trace.A("n", req.N),
			trace.A("batches", res.Stats.Batches))
	}

	s.mu.Lock()
	s.cache.Put(key, res)
	s.mu.Unlock()
	return res, nil
}
