package radio

import (
	"context"
	"sync"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// Pool is a reusable backend for the round scheduler: all per-run scratch
// (round calendar, transmitter bitset, observer scratch, node intent
// batches, lockstep lane state and the lanes' result buffers) and a
// one-entry CSR adjacency cache. A single Run pays the pool's costs —
// building the CSR snapshot, growing buffers — once; installing a Pool on
// the run context lets a batch of runs amortize them across every trial
// on the same graph. A pool owns no goroutines, so one that goes out of
// use needs no call to end it:
//
//	ctx := radio.WithPool(context.Background(), radio.NewPool())
//	// every radio.Run whose Config.Ctx descends from ctx uses the pool
//
// A caller that runs again later (harness.Repeat and RepeatBatches, and so
// every radiomisd job and experiment, and schedule.Planner) borrows one
// from the process-wide cache with AcquirePool and hands it back with
// Release, so its scratch stays warm from one call to the next instead of
// being rebuilt per call.
//
// A Pool serializes the scalar runs it backs (concurrent runs on one Pool
// simply queue on its mutex); use one Pool per concurrently-running
// worker. Pools never change simulation results: a run behaves
// bit-identically with and without one, and on a cached pool as on a new
// one.
type Pool struct {
	mu      sync.Mutex
	s       sched     // reused scheduler scratch
	lk      *lockstep // reused lockstep-engine scratch; nil while lent to a batch
	intents []intent  // arena the node batch buffers are cut from

	// One-entry CSR cache. Trials in a batch overwhelmingly share one
	// graph, so a single entry captures nearly all reuse; n and m guard
	// against a different graph reusing a freed *Graph's address.
	csrFor *graph.Graph
	csrN   int
	csrM   int
	csr    *graph.CSR
}

// NewPool returns an empty Pool; its buffers grow on first use.
func NewPool() *Pool { return &Pool{} }

// poolCache holds idle pools between Release and the next AcquirePool. A
// sync.Pool lets the GC drop a pool no caller took back within two
// collections, so the scratch a large batch grew is not kept for the
// process's life.
var poolCache sync.Pool

// AcquirePool returns an idle pool from the process-wide cache, or a new
// one: a cached pool holds nothing of its last run but warm buffers.
// Return it with Release once its runs are done.
func AcquirePool() *Pool {
	if p, _ := poolCache.Get().(*Pool); p != nil {
		return p
	}
	return NewPool()
}

// Release drops the pool's CSR snapshot and the engines' references to
// their last run (graph, context, observer, node environments), so an idle
// pool keeps nothing of its caller alive, and returns the pool to the
// process-wide cache. The caller must not use p afterwards.
func (p *Pool) Release() {
	p.mu.Lock()
	p.csrFor, p.csr = nil, nil
	p.s.unbind()
	if p.lk != nil {
		p.lk.unbind()
	}
	p.mu.Unlock()
	poolCache.Put(p)
}

type poolKey struct{}

// WithPool returns a context that carries pool; any radio.Run whose
// Config.Ctx descends from it executes on the pool's buffers.
func WithPool(ctx context.Context, pool *Pool) context.Context {
	return context.WithValue(ctx, poolKey{}, pool)
}

// poolFrom extracts the Pool installed by WithPool, if any.
func poolFrom(ctx context.Context) *Pool {
	if ctx == nil {
		return nil
	}
	pool, _ := ctx.Value(poolKey{}).(*Pool)
	return pool
}

// snapshot returns the CSR adjacency of g, reusing the cached snapshot when
// the batch stays on one graph, and reports whether the cache served it.
func (p *Pool) snapshot(g *graph.Graph) (*graph.CSR, bool) {
	if p.csrFor == g && p.csrN == g.N() && p.csrM == g.M() {
		return p.csr, true
	}
	p.csrFor, p.csrN, p.csrM = g, g.N(), g.M()
	p.csr = graph.BuildCSR(g)
	return p.csr, false
}

// arena returns the pool's intent arena resized to size, reusing its
// storage. Stale intents need no clearing: the scheduler reads only what a
// node wrote into a batch it handed over. Callers hold p.mu.
func (p *Pool) arena(size int) []intent {
	if cap(p.intents) < size {
		p.intents = make([]intent, size)
	}
	return p.intents[:size]
}

// coordinate runs one scheduled run on the pool's scratch. The caller
// (run) holds p.mu for the whole run, teardown included.
func (p *Pool) coordinate(g *graph.Graph, cfg *Config, inj *faults.Injector, maxRounds uint64, envs []*Env, wakes []uint64, res *Result) error {
	csr, cached := p.snapshot(g)
	p.s.bind(csr, cfg, inj, maxRounds, envs, wakes, res)
	if cfg.Perf != nil {
		// After bind's reset: mark the run as pool-backed. bind counted
		// any buffer growth the pool's warm scratch could not absorb.
		cfg.Perf.PoolHit = true
		cfg.Perf.CSRReused = cached
	}
	return p.s.loop()
}
