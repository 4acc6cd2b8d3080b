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
// bitset, observer scratch, node intent batches) and a one-entry CSR
// adjacency cache. A single Run pays the pool's costs — spawning workers,
// building the CSR snapshot, growing buffers — once; installing a Pool on
// the run context lets a batch of runs (harness.Repeat / Sweep trials, the
// radiomisd job loop) amortize them across every trial on the same graph.
//
// Use it as:
//
//	pool := radio.NewPool(0)
//	defer pool.Close()
//	ctx := radio.WithPool(context.Background(), pool)
//	// every radio.Run whose Config.Ctx descends from ctx uses the pool
//
// A Pool serializes the runs it backs (concurrent runs on one Pool simply
// queue on its mutex); use one Pool per concurrently-running worker. Pools
// never change simulation results: a run behaves bit-identically with and
// without one.
type Pool struct {
	mu      sync.Mutex
	workers int
	ws      *workerSet // lazily spawned helpers; nil until a run needs them
	s       sched      // reused scheduler scratch
	lk      lockstep   // reused lockstep-engine scratch (see lockstep.go)
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

// Close releases the pool's helper goroutines. The pool must not back any
// further runs.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ws != nil {
		p.ws.close()
		p.ws = nil
	}
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
