package schedule

import (
	"context"
	"fmt"

	"radiomis/internal/graph"
	"radiomis/internal/mis"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// maxLayerRetries bounds the reseeded re-runs of a radio-algorithm layer
// whose simulation failed — nodes left undecided, or a set that is not a
// valid MIS of the residual subgraph (the radio algorithms are Monte
// Carlo and succeed w.h.p., not always); each retry remixes the layer
// seed.
const maxLayerRetries = 4

// Planner computes batch plans with amortized scratch: a CSR snapshot with
// a one-entry cache (mirroring radio.Pool's), the vertex-mask view, the
// linear-MIS bucket queue, and the output plan all reuse their backing
// arrays call over call. A warm Planner serving same-shaped graphs on the
// default (linear) algorithm allocates nothing per call — the contract
// BenchmarkSolveBatch guards in CI.
//
// A Planner is not safe for concurrent use; use one per serving goroutine
// (the daemon keeps idle ones on a free list capped at maxIdlePlanners).
// Radio-algorithm layers run on a lazily created radio.Pool owned by the
// planner; Close releases it.
type Planner struct {
	csr     graph.CSR
	view    graph.View
	scratch graph.MinDegreeScratch
	plan    Plan

	// One-entry CSR cache, guarded like radio.Pool's: pointer identity
	// plus n and m so a recycled *Graph address cannot alias a stale
	// snapshot.
	csrFor *graph.Graph
	csrN   int
	csrM   int

	// Scratch of the radio-algorithm path (nil/empty until first used).
	pool   *radio.Pool
	keep   []bool
	chosen []int32

	// LayersComputed counts MIS layers peeled over the planner's lifetime,
	// a cheap reuse signal for telemetry.
	LayersComputed uint64
}

// NewPlanner returns an empty Planner; all buffers warm up on first use.
func NewPlanner() *Planner { return &Planner{} }

// Close releases the radio worker pool, if any radio-algorithm layer ever
// spawned one. The planner itself remains usable.
func (pl *Planner) Close() {
	if pl.pool != nil {
		pl.pool.Close()
		pl.pool = nil
	}
}

// Batches peels g into independent execution batches: layer i is a maximal
// independent set of the residual graph left by layers 0..i-1, computed by
// opts.Algorithm with seed rng.Mix(opts.Seed, i).
//
// The returned Plan is owned by the planner and valid until its next
// Batches call; clone it (Plan.Batches, or the package-level Batches
// function) to keep it.
func (pl *Planner) Batches(g *graph.Graph, opts Options) (*Plan, error) {
	algo := opts.Algorithm
	if algo == "" {
		algo = "linear"
	}
	if !mis.KnownAlgorithm(algo) {
		return nil, fmt.Errorf("schedule: unknown algorithm %q (known: %v)", algo, mis.Algorithms())
	}
	if pl.csrFor != g || pl.csrN != g.N() || pl.csrM != g.M() {
		pl.csr.Reset(g)
		pl.csrFor, pl.csrN, pl.csrM = g, g.N(), g.M()
	}
	pl.view.Reset(&pl.csr)
	pl.plan.reset(g.N())

	seq := sequentialLayer(algo)
	for layer := 0; pl.view.AliveCount() > 0; layer++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("schedule: %w", err)
			}
		}
		layerSeed := rng.Mix(opts.Seed, uint64(layer))
		var chosen []int32
		if seq {
			chosen = pl.scratch.MISOnView(&pl.view, layerSeed)
		} else {
			var err error
			chosen, err = pl.radioLayer(g, algo, layerSeed, opts)
			if err != nil {
				return nil, fmt.Errorf("schedule: layer %d (%s): %w", layer, algo, err)
			}
		}
		if len(chosen) == 0 {
			// An MIS of a non-empty graph is non-empty; reaching this is an
			// algorithm bug, and looping on it would never terminate.
			return nil, fmt.Errorf("schedule: layer %d (%s) chose no vertices with %d alive", layer, algo, pl.view.AliveCount())
		}
		pl.plan.appendBatch(chosen)
		pl.LayersComputed++
	}
	return &pl.plan, nil
}

// radioLayer computes one peeling layer by simulating the named radio
// algorithm on the materialized residual subgraph, removes the chosen
// vertices from the view, and returns them (in the scratch's chosen
// buffer). Simulation failures (undecided nodes) retry under remixed
// seeds; this path allocates per layer by design — the zero-allocation
// contract belongs to the sequential path only.
func (pl *Planner) radioLayer(g *graph.Graph, algo string, layerSeed uint64, opts Options) ([]int32, error) {
	n := g.N()
	if cap(pl.keep) < n {
		pl.keep = make([]bool, n)
	} else {
		pl.keep = pl.keep[:n]
	}
	for v := 0; v < n; v++ {
		pl.keep[v] = pl.view.Alive(v)
	}
	sub, orig := g.InducedSubgraph(pl.keep)
	p := mis.ParamsDefault(sub.N(), sub.MaxDegree())

	ctx := opts.Ctx
	if pl.pool == nil {
		pl.pool = radio.NewPool(0)
	}
	ctx = radio.WithPool(orBackground(ctx), pl.pool)

	var res *mis.Result
	for attempt := 0; ; attempt++ {
		r, err := mis.Run(algo, sub, p, mis.RunOpts{Seed: rng.Mix(layerSeed, uint64(attempt)), Ctx: ctx})
		if err != nil {
			return nil, err
		}
		var failure error
		if r.Undecided != 0 {
			failure = fmt.Errorf("%d nodes undecided", r.Undecided)
		} else {
			// A batch must be a real MIS of the residual subgraph — the
			// whole plan's independence rests on it — so verify before
			// accepting, and burn a retry on a w.h.p. failure.
			failure = graph.CheckMIS(sub, r.InMIS)
		}
		if failure == nil {
			res = r
			break
		}
		if attempt == maxLayerRetries {
			return nil, fmt.Errorf("after %d attempts: %w", attempt+1, failure)
		}
	}

	if cap(pl.chosen) < n {
		pl.chosen = make([]int32, 0, n)
	}
	pl.chosen = pl.chosen[:0]
	for sv, in := range res.InMIS {
		if in {
			v := orig[sv]
			pl.chosen = append(pl.chosen, int32(v))
			pl.view.Remove(v)
		}
	}
	return pl.chosen, nil
}

// orBackground substitutes context.Background for a nil context (the radio
// pool must ride on some context).
func orBackground(ctx context.Context) context.Context {
	if ctx != nil {
		return ctx
	}
	return context.Background()
}
