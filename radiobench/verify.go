package main

import (
	"fmt"
	"math"

	"radiomis/internal/graph"
	"radiomis/internal/harness"
	"radiomis/internal/mis"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
	"radiomis/internal/server"
	"radiomis/internal/stats"
)

// counts is simulated work: exact integers that depend only on the requests
// sent, never on how fast they were served.
type counts struct {
	trials        int
	successes     int
	rounds        uint64
	awake         uint64 // awake node-rounds, Σ over trials and nodes of Energy
	nodeRounds    uint64 // Σ over trials of n × rounds
	lockstepCalls int
	laneRounds    uint64 // Σ rounds over lockstep lanes
	laneCapacity  uint64 // Σ over lockstep calls of 64 × the call's longest lane
	plans         int
	batches       int
}

func (c *counts) addTrial(g *graph.Graph, res *mis.Result, success bool) {
	c.trials++
	if success {
		c.successes++
	}
	c.rounds += res.Rounds
	c.nodeRounds += uint64(g.N()) * res.Rounds
	for _, e := range res.Energy {
		c.awake += e
	}
}

func (c *counts) String() string {
	s := fmt.Sprintf("mis.trials=%d mis.rounds=%d mis.awake_node_rounds=%d mis.lockstep_calls=%d",
		c.trials, c.rounds, c.awake, c.lockstepCalls)
	if c.plans > 0 {
		s += fmt.Sprintf(" schedule.plans=%d schedule.batches=%d", c.plans, c.batches)
	}
	return s
}

// verify recomputes a job's result independently: every trial runs on the
// scalar engine through mis.Run at seed rng.Mix(seed, i), and the summaries
// must equal the job's bit for bit. A schedule response is checked against
// its request's graph instead. The recomputed work is added to c.
func (b *bench) verify(o *outcome, c *counts) error {
	if o.plan != nil {
		if err := validatePlan(schedN, b.edges[o.graph], o.plan.Batches); err != nil {
			return fmt.Errorf("schedule seed %d: %w", o.plan.Seed, err)
		}
		c.plans++
		c.batches += len(o.plan.Batches)
		return nil
	}
	req := *o.job
	want, err := recompute(req, c)
	if err != nil {
		return fmt.Errorf("recomputing job seed %d: %w", req.Seed, err)
	}
	if b.w.engine == mis.EngineLockstep {
		// checkJob saw the job run on the lockstep engine, as ⌈trials/64⌉
		// calls; the scalar recomputation makes none, so count them here.
		c.lockstepCalls += (req.Trials + radio.MaxLanes - 1) / radio.MaxLanes
	}
	if err := sameSummaries(o.status.Result.Solve.Metrics, want); err != nil {
		return fmt.Errorf("job seed %d differs from its scalar recomputation: %w", req.Seed, err)
	}
	return nil
}

// recompute runs a solve request trial by trial on the scalar engine and
// summarizes the metric rows the way the daemon does.
func recompute(req server.JobRequest, c *counts) (map[string]stats.Summary, error) {
	fam, err := graph.ParseFamily(req.Family)
	if err != nil {
		return nil, err
	}
	rows := make(map[string][]float64)
	for i := 0; i < req.Trials; i++ {
		seed := rng.Mix(req.Seed, uint64(i))
		g := graph.Generate(fam, req.N, rng.New(seed))
		p := mis.ParamsDefault(g.N(), g.MaxDegree())
		res, err := mis.Run(req.Algorithm, g, p, mis.RunOpts{Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		ok := res.Check(g) == nil
		for name, v := range trialRow(res, ok) {
			rows[name] = append(rows[name], v)
		}
		c.addTrial(g, res, ok)
	}
	out := make(map[string]stats.Summary, len(rows))
	for name, xs := range rows {
		out[name] = stats.Summarize(xs)
	}
	return out, nil
}

// trialRow is the metric row a clean solve job records for one trial.
func trialRow(res *mis.Result, success bool) harness.Metrics {
	row := harness.Metrics{
		"maxEnergy": float64(res.MaxEnergy()),
		"avgEnergy": res.AvgEnergy(),
		"rounds":    float64(res.Rounds),
		"success":   0,
	}
	if success {
		row["success"] = 1
	}
	return row
}

// sameSummaries reports the first metric whose summaries differ in any bit.
func sameSummaries(got, want map[string]stats.Summary) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %q missing", name)
		}
		same := g.Count == w.Count
		for _, pair := range [][2]float64{{g.Mean, w.Mean}, {g.Std, w.Std}, {g.Min, w.Min}, {g.Max, w.Max}, {g.Median, w.Median}, {g.P90, w.P90}} {
			same = same && math.Float64bits(pair[0]) == math.Float64bits(pair[1])
		}
		if !same {
			return fmt.Errorf("metric %q: got %+v, want %+v", name, g, w)
		}
	}
	return nil
}

// validatePlan checks a batch plan of the graph (n vertices, the given
// edges): the batches partition the vertices, each batch is independent,
// and each is maximal in the graph left by the batches before it — every
// vertex has a neighbor in every earlier batch.
func validatePlan(n int, edges [][2]int, batches [][]int) error {
	layer := make([]int, n)
	for v := range layer {
		layer[v] = -1
	}
	for b, batch := range batches {
		for _, v := range batch {
			if v < 0 || v >= n {
				return fmt.Errorf("batch %d holds vertex %d, outside [0, %d)", b, v, n)
			}
			if layer[v] >= 0 {
				return fmt.Errorf("vertex %d is in batches %d and %d", v, layer[v], b)
			}
			layer[v] = b
		}
	}
	for v, l := range layer {
		if l < 0 {
			return fmt.Errorf("vertex %d is in no batch", v)
		}
	}
	adj := make([][]int, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if layer[u] == layer[v] {
			return fmt.Errorf("edge {%d,%d} inside batch %d", u, v, layer[u])
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	seen := make([]bool, len(batches))
	for v, l := range layer {
		clear(seen[:l])
		for _, w := range adj[v] {
			if layer[w] < l {
				seen[layer[w]] = true
			}
		}
		for k := 0; k < l; k++ {
			if !seen[k] {
				return fmt.Errorf("vertex %d (batch %d) has no neighbor in batch %d, so batch %d was not maximal", v, l, k, k)
			}
		}
	}
	return nil
}
