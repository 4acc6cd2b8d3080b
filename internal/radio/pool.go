package radio

import (
	"context"
	"runtime"
	"sync"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// Pool is a reusable backend for the sharded round scheduler: a fixed set
// of worker goroutines plus all per-run scratch (shard buffers, transmitter
// bitset, observer scratch, node intent batches, lockstep lane state and
// the lanes' result buffers) and a one-entry CSR adjacency cache. A single
// Run pays the pool's costs — spawning workers, building the CSR snapshot,
// growing buffers — once; installing a Pool on the run context lets a
// batch of runs amortize them across every trial on the same graph.
//
// A pool has one of two lifetimes. The caller owns one from NewPool and
// ends it with Close:
//
//	pool := radio.NewPool(0)
//	defer pool.Close()
//	ctx := radio.WithPool(context.Background(), pool)
//	// every radio.Run whose Config.Ctx descends from ctx uses the pool
//
// A batch caller that runs again later (harness.Repeat and RepeatBatches,
// and so every radiomisd job and experiment) borrows one from the
// process-wide cache with AcquirePool and hands it back with Release, so
// its scratch stays warm from one call to the next instead of being
// rebuilt per call.
//
// A Pool serializes the scalar runs it backs (concurrent runs on one Pool
// simply queue on its mutex); use one Pool per concurrently-running
// worker. Pools never change simulation results: a run behaves
// bit-identically with and without one, and on a cached pool as on a new
// one.
type Pool struct {
	mu      sync.Mutex
	workers int
	ws      *workerSet // lazily spawned helpers; nil until a run needs them
	s       sched      // reused scheduler scratch
	lk      *lockstep  // reused lockstep-engine scratch; nil while lent to a batch
	intents []intent   // arena the node batch buffers are cut from

	// One-entry CSR cache. Trials in a batch overwhelmingly share one
	// graph, so a single entry captures nearly all reuse; n and m guard
	// against a different graph reusing a freed *Graph's address.
	csrFor *graph.Graph
	csrN   int
	csrM   int
	csr    *graph.CSR
}

// NewPool returns a Pool sized for `workers` parallel shards; workers <= 0
// means GOMAXPROCS. Helper goroutines are spawned lazily on the first run
// that shards, so pools for single-shard workloads stay goroutine-free.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Close releases the pool's helper goroutines. The pool keeps its scratch,
// and a later run on it spawns helpers again if it shards; a pool from
// AcquirePool goes back with Release instead, which closes it too.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closeLocked()
}

func (p *Pool) closeLocked() {
	if p.ws != nil {
		p.ws.close()
		p.ws = nil
	}
}

// poolCache holds idle pools between Release and the next AcquirePool. A
// sync.Pool lets the GC drop a pool no caller took back within two
// collections, so the scratch a large batch grew is not kept for the
// process's life.
var poolCache sync.Pool

// AcquirePool returns an idle pool from the process-wide cache, or a new
// one, set up for `workers` parallel shards exactly as NewPool(workers)
// would be: a cached pool holds no helper goroutines and nothing of its
// last run but warm buffers. Return it with Release once its runs are
// done.
func AcquirePool(workers int) *Pool {
	p, _ := poolCache.Get().(*Pool)
	if p == nil {
		return NewPool(workers)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p.workers = workers
	return p
}

// Release closes the pool's helper goroutines, drops its CSR snapshot and
// the engines' references to their last run (graph, context, observer,
// node environments), so an idle pool keeps nothing of its caller alive,
// and returns the pool to the process-wide cache. The caller must not use
// p afterwards.
func (p *Pool) Release() {
	p.mu.Lock()
	p.closeLocked()
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
// Config.Ctx descends from it executes on the pool's workers and buffers.
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

// coordinate runs one scheduled run on the pool's workers and scratch.
// The caller (run) holds p.mu for the whole run, teardown included.
func (p *Pool) coordinate(g *graph.Graph, cfg *Config, inj *faults.Injector, maxRounds uint64, envs []*Env, wakes []uint64, res *Result) error {
	nShards := shardCount(cfg, g.N(), p.workers)
	csr, cached := p.snapshot(g)
	p.s.bind(g, csr, cfg, inj, maxRounds, envs, wakes, res, nShards)
	if cfg.Perf != nil {
		// After bind's reset: mark the run as pool-backed. bind counted
		// any buffer growth the pool's warm scratch could not absorb.
		cfg.Perf.PoolHit = true
		cfg.Perf.CSRReused = cached
	}
	if len(p.s.shards) > 1 && p.ws == nil {
		p.ws = newWorkerSet(p.workers - 1)
	}
	p.s.ws = p.ws
	return p.s.loop()
}
