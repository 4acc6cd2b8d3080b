package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"radiomis/internal/store"
)

// This file is the manager's durability seam: with Options.Store set,
// every accepted job and state transition is appended to the WAL, and
// startup replays the log — terminal jobs come back queryable (their
// results re-warm the LRU cache), queued and running jobs are re-enqueued
// and execute again. The radio engine is deterministic per seed, so a
// re-executed job reproduces exactly the result the crashed run would
// have produced. Jobs served purely from cache or coalesced onto an
// in-flight twin are never persisted — they carry no work to resume.

// persistSubmit records a newly accepted job. Called with m.mu held (the
// store is only ever touched under m.mu). An append failure is returned
// to the submitter: accepting a job the log cannot remember would break
// the durability contract silently.
func (m *Manager) persistSubmit(j *Job) error {
	if m.opts.Store == nil {
		return nil
	}
	req, err := json.Marshal(j.req)
	if err != nil {
		return fmt.Errorf("server: marshal request for WAL: %w", err)
	}
	return m.opts.Store.Append(store.Record{
		T: store.RecordJob, ID: j.id, Time: j.submittedAt, Req: req,
	})
}

// persistState records a state transition; terminal done states carry
// the result. Called with m.mu held. Transition-append failures are
// logged, not fatal: the job was durably accepted, so the worst case on
// replay is re-running work that already finished.
func (m *Manager) persistState(j *Job, state, errMsg string, res *JobResult) {
	if m.opts.Store == nil {
		return
	}
	rec := store.Record{T: store.RecordState, ID: j.id, Time: time.Now(), State: state, Error: errMsg}
	if res != nil {
		b, err := json.Marshal(res)
		if err == nil {
			rec.Result = b
		} else {
			m.opts.Logger.Warn("wal: marshal result", j.logArgs("error", err.Error())...)
		}
	}
	if err := m.opts.Store.Append(rec); err != nil {
		m.opts.Logger.Warn("wal: append state", j.logArgs("state", state, "error", err.Error())...)
	}
}

// persistRunning records the queued→running transition from the worker
// goroutine, which does not hold m.mu; it takes it to serialize store
// access.
func (m *Manager) persistRunning(j *Job) {
	m.mu.Lock()
	m.persistState(j, StateRunning, "", nil)
	m.mu.Unlock()
}

// recover rebuilds jobs from the replayed WAL records: terminal jobs are
// re-registered (results re-warm the cache) under the finished-job cap,
// queued/running jobs are re-enqueued. Called from New before the workers
// start, so recovered jobs run ahead of anything submitted after startup.
// It returns the number of re-enqueued jobs.
func (m *Manager) recover(recs []*store.JobRecord) int {
	requeued := 0
	var finished []*Job
	for _, rec := range recs {
		var req JobRequest
		if err := json.Unmarshal(rec.Req, &req); err != nil {
			m.opts.Logger.Warn("wal: skipping undecodable job", "jobId", rec.ID, "error", err.Error())
			continue
		}
		// Track the highest replayed sequence number so new IDs continue
		// after the crash instead of colliding.
		if seq, ok := parseJobID(rec.ID); ok && seq > m.seq {
			m.seq = seq
		}
		key := req.Key()
		jctx, cancel := context.WithCancel(m.rootCtx)
		j := &Job{
			id:          rec.ID,
			key:         key,
			req:         req,
			submittedAt: rec.SubmittedAt,
			ctx:         jctx,
			cancel:      cancel,
			state:       StateQueued,
			notify:      make(chan struct{}),
			done:        make(chan struct{}),
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)

		if isTerminal(rec.State) {
			var res *JobResult
			if rec.Result != nil {
				res = new(JobResult)
				if err := json.Unmarshal(rec.Result, res); err != nil {
					m.opts.Logger.Warn("wal: dropping undecodable result", "jobId", rec.ID, "error", err.Error())
					res = nil
				}
			}
			j.mu.Lock()
			j.result = res
			j.startedAt = rec.UpdatedAt
			j.finishedAt = rec.UpdatedAt
			j.state = rec.State
			j.errMsg = rec.Error
			j.appendEventLocked(stateEvent{Ev: "state", State: rec.State, Error: rec.Error})
			close(j.done)
			j.mu.Unlock()
			cancel()
			if rec.State == StateDone && res != nil {
				m.cache.Put(key, res)
			}
			finished = append(finished, j)
			continue
		}

		// Queued or running at the crash: back to the queue. The engine
		// is deterministic per seed, so a partially run job re-executes
		// to the same result.
		j.mu.Lock()
		j.appendEventLocked(stateEvent{Ev: "state", State: StateQueued})
		j.mu.Unlock()
		m.inflight[key] = j
		m.queue <- j // capacity is sized to hold every recovered job
		requeued++
		m.opts.Logger.Info("wal: re-enqueued job after restart",
			"jobId", j.id, "kind", req.Kind, "walState", rec.State)
	}
	// Retire the replayed finished jobs in the order they finished, so
	// the cap evicts the same jobs it would have evicted had the daemon
	// never restarted.
	sort.SliceStable(finished, func(a, b int) bool {
		return finished[a].finishedAt.Before(finished[b].finishedAt)
	})
	for _, j := range finished {
		m.retireLocked(j)
	}
	return requeued
}

// parseJobID extracts the sequence number from a server-assigned job ID
// ("j%06d").
func parseJobID(id string) (int, bool) {
	if !strings.HasPrefix(id, "j") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Ready reports whether the daemon should receive new work: true from
// the end of startup replay until draining begins. The string explains a
// false answer ("recovering" or "draining").
func (m *Manager) Ready() (bool, string) {
	if m.ready.Load() {
		return true, ""
	}
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	if draining {
		return false, "draining"
	}
	return false, "recovering"
}

// ReadyResponse is the body of GET /readyz.
type ReadyResponse struct {
	Status string `json:"status"` // "ready" or the not-ready reason
	Schema string `json:"schema"`
}
