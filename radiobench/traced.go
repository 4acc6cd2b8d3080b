package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"radiomis/internal/graph"
	"radiomis/internal/harness"
	"radiomis/internal/mis"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
	"radiomis/internal/schedule"
	"radiomis/internal/server"
	"radiomis/internal/stats"
	"radiomis/internal/trace"
)

// traceCapacity bounds the spans a traced run keeps. A run that ends more
// spans than this fails instead of reporting from a partial trace.
const traceCapacity = 1 << 18

// layers are the program's layers the traced run attributes time to, in
// table order; a span belongs to the layer its name starts with.
var layers = []string{"server", "harness", "graph", "mis", "schedule"}

// runTraced measures the per-layer metrics. It sets the workload up once,
// then runs a fixed number of operation pairs: an untraced reference
// operation, and a traced one whose handler calls run under spans and which
// is then decomposed into the public calls of the layers below the handler
// (see decompose). The spans are written as a Chrome trace.
func runTraced(out io.Writer, w *workload, seed uint64, d time.Duration, outDir string) (*result, error) {
	var t tally
	b, err := setUp(w, seed, &t)
	if err != nil {
		return nil, err
	}
	defer b.close()
	tr := trace.New(traceCapacity)
	dc := newDecomposer(b, tr)
	defer dc.close()
	nOps := max(w.verifyOps, int(math.Round(w.traceOpsPerSecond*d.Seconds())))
	runtime.GC()

	var (
		plain, traced []float64
		plainAlloc    uint64
		queueWaitMs   float64
		verified      []*outcome
	)
	for i := 0; i < nOps; i++ {
		a0 := allocBytes()
		lat, _, err := b.op(trace.SpanContext{}, streamTracePlain, i)
		plainAlloc += allocBytes() - a0
		t.add(err)
		if err == nil {
			plain = append(plain, ms(lat))
		}

		b.tr = tr
		root := tr.StartSpan(trace.SpanContext{}, "bench.op", time.Now())
		lat, o, err := b.op(root.Context(), streamTraced, i)
		b.tr = nil
		t.add(err)
		if err != nil {
			root.End()
			continue
		}
		traced = append(traced, ms(lat))
		if o.status != nil && o.status.QueueWaitMs != nil { // jobs only
			queueWaitMs += *o.status.QueueWaitMs
		}
		if err := dc.decompose(root.Context(), i, o); err != nil {
			t.fail(err)
		}
		root.End()
		if i < w.verifyOps {
			verified = append(verified, o)
		}
	}

	var vc counts
	for _, o := range verified {
		if err := b.verify(o, &vc); err != nil {
			t.fail(err)
		}
	}
	if t.firstErr != nil {
		fmt.Fprintf(out, "FAIL %v\n", t.firstErr)
	}
	fmt.Fprintf(out, "counts over the first %d traced operations (recomputed): %s\n", len(verified), &vc)
	fmt.Fprintf(out, "counts over all %d traced operations (decomposed): %s\n", nOps, &dc.c)

	spans := tr.Spans()
	if uint64(len(spans)) != tr.Ended() {
		return nil, fmt.Errorf("trace kept %d of %d spans; raise traceCapacity", len(spans), tr.Ended())
	}
	path, err := writeChrome(outDir, w.name, seed, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "chrome trace: %s (%d spans)\n", path, len(spans))

	a := analyze(spans)
	if a.ops == 0 || len(plain) == 0 {
		return &result{Correct: false, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}, nil
	}
	printLayerTable(out, a)
	m := dc.metrics(a)
	n := float64(a.ops)
	m["server.queue_wait_ms"] = metric{queueWaitMs / n, "ms"}
	m["server.alloc_kb_per_op"] = metric{float64(plainAlloc) / float64(len(plain)) / 1024, "KB"}
	m["bench.trace_overhead_pct"] = metric{(median(traced)/median(plain) - 1) * 100, "%"}
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocBytes returns the bytes allocated on the heap so far, process-wide.
// It reads MemStats, which stops the world but counts exactly; the
// runtime/metrics counter is charged a span at a time, too coarse for one
// plan's window.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// decomposer replays a traced operation through the public calls of each
// layer, under spans, and checks that every replay reproduces the handler's
// answer.
type decomposer struct {
	b       *bench
	tr      *trace.Tracer
	planner *schedule.Planner
	// exec serves the Manager.Schedule replay of schedule requests; its
	// plan cache is off so that every replay plans.
	exec *server.Manager

	mu sync.Mutex // guards c: scalar trials report from harness workers
	c  counts
	// Allocation windows, outside every span: each job rebuild, and a
	// second, untimed plan of each schedule rebuild's graph.
	jobAlloc, planAlloc uint64
	// harnessWorkers is the number of goroutines the harness runs a job's
	// trials on.
	harnessWorkers int
}

func newDecomposer(b *bench, tr *trace.Tracer) *decomposer {
	dc := &decomposer{b: b, tr: tr, planner: schedule.NewPlanner()}
	j := b.w.job
	if j == nil {
		dc.exec = server.New(server.Options{CacheSize: -1})
		return dc
	}
	groups := j.Trials
	if b.w.engine == mis.EngineLockstep {
		groups = (j.Trials + radio.MaxLanes - 1) / radio.MaxLanes
	}
	dc.harnessWorkers = min(runtime.GOMAXPROCS(0), groups)
	return dc
}

func (dc *decomposer) close() {
	dc.planner.Close()
	if dc.exec != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		dc.exec.Shutdown(ctx)
	}
}

func (dc *decomposer) span(parent trace.SpanContext, name string) *trace.Span {
	return dc.tr.StartSpan(parent, name, time.Now())
}

// decompose replays traced operation i. A job runs again through
// server.ExecuteLocal, giving the executor's time E, and then once more
// rebuilt from the executor's public calls. The handler's latency L minus E
// is the server's overhead. Every replay must match the handler's answer
// exactly.
func (dc *decomposer) decompose(parent trace.SpanContext, i int, o *outcome) error {
	if o.plan != nil {
		return dc.schedule(parent, i, o)
	}
	req := *o.job
	if err := req.Normalize(); err != nil {
		return fmt.Errorf("normalizing job request: %w", err)
	}
	sp := dc.span(parent, "server.ExecuteLocal")
	res, err := server.ExecuteLocal(context.Background(), req)
	sp.End()
	if err != nil {
		return fmt.Errorf("ExecuteLocal seed %d: %w", req.Seed, err)
	}
	if err := sameSummaries(res.Solve.Metrics, o.status.Result.Solve.Metrics); err != nil {
		return fmt.Errorf("ExecuteLocal seed %d differs from the handler's job: %w", req.Seed, err)
	}
	a0 := allocBytes()
	got, err := dc.job(parent, req)
	dc.jobAlloc += allocBytes() - a0
	if err != nil {
		return fmt.Errorf("rebuilding job seed %d: %w", req.Seed, err)
	}
	if err := sameSummaries(got, o.status.Result.Solve.Metrics); err != nil {
		return fmt.Errorf("rebuilt job seed %d differs from the handler's job: %w", req.Seed, err)
	}
	return nil
}

// job rebuilds the executor's solve path (server.ExecuteLocal) from its
// public calls. The context handed to the program carries no tracer: the
// spans are the benchmark's, parented explicitly.
func (dc *decomposer) job(parent trace.SpanContext, req server.JobRequest) (map[string]stats.Summary, error) {
	root := dc.span(parent, "server.execute")
	defer root.End()
	rc := root.Context()

	sp := dc.span(rc, "server.ResolveEngine")
	engine := server.ResolveEngine(req)
	sp.End()
	fam, err := graph.ParseFamily(req.Family)
	if err != nil {
		return nil, err
	}
	hopts := harness.Options{Trials: req.Trials, Seed: req.Seed, SeedOffset: req.TrialOffset}
	ctx := context.Background()

	var agg *harness.Aggregate
	if engine == mis.EngineLockstep {
		sp = dc.span(rc, "graph.Generate")
		g := graph.Generate(fam, req.N, rng.New(req.Seed))
		sp.End()
		sp = dc.span(rc, "mis.ParamsDefault")
		p := mis.ParamsDefault(g.N(), g.MaxDegree())
		sp.End()

		hs := dc.span(rc, "harness.RepeatBatches")
		agg, err = harness.RepeatBatches(ctx, hopts, radio.MaxLanes,
			func(ctx context.Context, _ int, seeds []uint64) ([]harness.Metrics, error) {
				ts := dc.span(hs.Context(), "server.trial")
				defer ts.End()
				sp := dc.span(ts.Context(), "mis.RunMany")
				results, err := mis.RunMany(req.Algorithm, g, p,
					mis.ManyOpts{Seeds: seeds, Ctx: ctx, Engine: mis.EngineLockstep})
				sp.End()
				if err != nil {
					return nil, err
				}
				ms := make([]harness.Metrics, len(results))
				var laneRounds, longest uint64
				for i, res := range results {
					ms[i] = dc.trialMetrics(ts.Context(), g, res)
					laneRounds += res.Rounds
					longest = max(longest, res.Rounds)
				}
				// At most radio.MaxLanes seeds per call: one lockstep run.
				dc.mu.Lock()
				dc.c.lockstepCalls++
				dc.c.laneRounds += laneRounds
				dc.c.laneCapacity += radio.MaxLanes * longest
				dc.mu.Unlock()
				return ms, nil
			})
		hs.End()
	} else {
		hs := dc.span(rc, "harness.Repeat")
		agg, err = harness.Repeat(ctx, hopts,
			func(ctx context.Context, seed uint64) (harness.Metrics, error) {
				ts := dc.span(hs.Context(), "server.trial")
				defer ts.End()
				sp := dc.span(ts.Context(), "graph.Generate")
				g := graph.Generate(fam, req.N, rng.New(seed))
				sp.End()
				sp = dc.span(ts.Context(), "mis.ParamsDefault")
				p := mis.ParamsDefault(g.N(), g.MaxDegree())
				sp.End()
				sp = dc.span(ts.Context(), "mis.Run")
				res, err := mis.Run(req.Algorithm, g, p, mis.RunOpts{Seed: seed, Ctx: ctx})
				sp.End()
				if err != nil {
					return nil, err
				}
				return dc.trialMetrics(ts.Context(), g, res), nil
			})
		hs.End()
	}
	if err != nil {
		return nil, err
	}

	sp = dc.span(rc, "server.summarize")
	sums := make(map[string]stats.Summary)
	for _, name := range agg.Names() {
		sums[name] = agg.Summary(name)
	}
	sp.End()
	return sums, nil
}

// trialMetrics is the executor's per-trial metric row of a clean job, with
// the MIS check under its own span.
func (dc *decomposer) trialMetrics(parent trace.SpanContext, g *graph.Graph, res *mis.Result) harness.Metrics {
	sp := dc.span(parent, "graph.check")
	ok := res.Check(g) == nil
	sp.End()
	dc.mu.Lock()
	dc.c.addTrial(g, res, ok)
	dc.mu.Unlock()
	return trialRow(res, ok)
}

// schedule decomposes a POST /v1/schedule request like a job: the body is
// decoded, planned once through Manager.Schedule on a manager whose plan
// cache is off (the scheduler's time), then once more rebuilt from the
// scheduler's steps, and the rebuilt result is encoded as the handler
// would. Both plans must equal the handler's.
func (dc *decomposer) schedule(parent trace.SpanContext, i int, o *outcome) error {
	body, _, _ := dc.b.scheduleBody(streamTraced, i)
	sp := dc.span(parent, "server.decode")
	var req server.ScheduleRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	sp.End()
	if err != nil {
		return fmt.Errorf("decoding schedule request: %w", err)
	}

	sp = dc.span(parent, "server.Manager.Schedule")
	want, err := dc.exec.Schedule(context.Background(), req)
	sp.End()
	if err != nil {
		return fmt.Errorf("Manager.Schedule seed %d: %w", req.Seed, err)
	}
	got, g, err := dc.plan(parent, req)
	if err != nil {
		return fmt.Errorf("rebuilding schedule seed %d: %w", req.Seed, err)
	}

	sp = dc.span(parent, "server.encode")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(got)
	sp.End()
	if err != nil {
		return fmt.Errorf("encoding schedule result: %w", err)
	}
	for _, r := range []*server.ScheduleResult{want, got} {
		if !reflect.DeepEqual(r.Batches, o.plan.Batches) || r.Stats != o.plan.Stats {
			return fmt.Errorf("replayed plan for seed %d differs from the handler's", req.Seed)
		}
	}
	dc.c.plans++
	dc.c.batches += len(got.Batches)

	// Allocation probe, outside every span: plan a fresh copy of the graph
	// on the warm planner, as the next request would.
	g2 := g.Clone()
	a0 := allocBytes()
	if _, err := dc.planner.Batches(g2, schedule.Options{Algorithm: req.Algorithm, Seed: req.Seed, Ctx: context.Background()}); err != nil {
		return fmt.Errorf("planning (allocation probe): %w", err)
	}
	dc.planAlloc += allocBytes() - a0
	return nil
}

// plan rebuilds Manager.Schedule from its public calls: normalize and key
// the request, build the graph, plan on a warm planner, and materialize the
// plan into the result.
func (dc *decomposer) plan(parent trace.SpanContext, req server.ScheduleRequest) (*server.ScheduleResult, *graph.Graph, error) {
	root := dc.span(parent, "server.schedule")
	defer root.End()
	rc := root.Context()
	if err := req.Normalize(); err != nil {
		return nil, nil, err
	}
	_ = req.Key() // the scheduler hashes every request for its plan cache
	sp := dc.span(rc, "graph.build")
	g := graph.New(req.N)
	var err error
	for _, e := range req.Edges {
		if err = g.AddEdge(e[0], e[1]); err != nil {
			break
		}
	}
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = dc.span(rc, "schedule.plan")
	start := time.Now()
	plan, err := dc.planner.Batches(g, schedule.Options{Algorithm: req.Algorithm, Seed: req.Seed, Ctx: context.Background()})
	planDur := time.Since(start)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = dc.span(rc, "schedule.materialize")
	res := &server.ScheduleResult{
		Schema:    server.SchemaVersion,
		Algorithm: req.Algorithm,
		Family:    req.Family,
		N:         req.N,
		Seed:      req.Seed,
		Batches:   plan.Batches(),
		Stats:     plan.Stats(),
		PlanMs:    ms(planDur),
	}
	sp.End()
	return res, g, nil
}

// metrics turns the analyzed spans and the exact counts into the per-layer
// metrics. A layer the workload never calls reports 0.
func (dc *decomposer) metrics(a *analysis) map[string]metric {
	n := float64(a.ops)
	c := dc.c
	trials := float64(c.trials)
	misBusy := a.busy["mis.Run"] + a.busy["mis.RunMany"]
	serverSelf := a.layerSelf["server"] - a.overhead // the server row also holds L − E
	m := map[string]metric{
		"server.overhead_ms":          {ms(a.overhead) / n, "ms"},
		"server.http_us":              {us(a.dur["server.http"]) / n, "us"},
		"server.decode_us":            {us(a.meanDur("server.decode")), "us"},
		"server.encode_us":            {us(a.meanDur("server.encode")), "us"},
		"server.self_us":              {us(serverSelf) / n, "us"},
		"harness.self_us_per_trial":   {ratio(us(a.layerSelf["harness"]), trials), "us"},
		"harness.parallel_efficiency": {ratio(float64(a.dur["server.trial"]), float64(a.dur["harness.RepeatBatches"]+a.dur["harness.Repeat"])*float64(dc.harnessWorkers)), "ratio"},
		"graph.generate_us":           {us(a.meanDur("graph.Generate")), "us"},
		"graph.generate_calls":        {float64(a.count["graph.Generate"]), "count"},
		"graph.check_us":              {us(a.meanDur("graph.check")), "us"},
		"graph.build_us":              {us(a.meanDur("graph.build")), "us"},
		"mis.ns_per_awake_node_round": {ratio(float64(misBusy), float64(c.awake)), "ns"},
		"mis.ns_per_round":            {ratio(float64(misBusy), float64(c.rounds)), "ns"},
		"mis.awake_fraction":          {ratio(float64(c.awake), float64(c.nodeRounds)), "ratio"},
		"mis.lane_occupancy":          {ratio(float64(c.laneRounds), float64(c.laneCapacity)), "ratio"},
		"mis.trials":                  {trials, "count"},
		"mis.rounds":                  {float64(c.rounds), "count"},
		"mis.awake_node_rounds":       {float64(c.awake), "count"},
		"mis.lockstep_calls":          {float64(c.lockstepCalls), "count"},
		"mis.success_ratio":           {ratio(float64(c.successes), trials), "ratio"},
		"mis.trial_ms":                {ratio(ms(misBusy), trials), "ms"},
		"mis.alloc_kb_per_trial":      {ratio(float64(dc.jobAlloc)/1024, trials), "KB"},
		"schedule.plan_us":            {us(a.meanDur("schedule.plan")), "us"},
		"schedule.batches_per_plan":   {ratio(float64(c.batches), float64(c.plans)), "count"},
		"schedule.alloc_b_per_plan":   {ratio(float64(dc.planAlloc), float64(c.plans)), "B"},
		"bench.self_sum_ratio":        {ratio(float64(a.tableSum()), float64(a.dur["bench.request"])), "ratio"},
	}
	for _, l := range layers {
		m[l+".self_ms_per_op"] = metric{ms(a.layerSelf[l]) / n, "ms"}
	}
	return m
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (the workload does no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// analysis is the traced run's spans reduced to per-name and per-layer
// totals over all traced operations.
type analysis struct {
	ops int
	// dur, count: total duration and number of spans per span name.
	dur   map[string]time.Duration
	count map[string]int
	// busy: per span name, durations minus the parts children cover.
	busy map[string]time.Duration
	// layerSelf is the layer table: per layer, its spans' shares of their
	// replays' wall time (see wallShares), plus, in the server row, the
	// overhead L − E of every operation (handler latency minus the
	// executor's or scheduler's time).
	layerSelf map[string]time.Duration
	overhead  time.Duration
}

func (a *analysis) meanDur(name string) time.Duration {
	if a.count[name] == 0 {
		return 0
	}
	return a.dur[name] / time.Duration(a.count[name])
}

func (a *analysis) tableSum() time.Duration {
	var s time.Duration
	for _, l := range layers {
		s += a.layerSelf[l]
	}
	return s
}

// node is one span in a replay tree, its interval clamped to its parent's.
type node struct {
	sp         *trace.Span
	start, end time.Time
	kids       []*node
}

// analyze groups the spans by trace (one trace per traced operation) and
// reduces each operation's replay tree to wall shares and busy times.
func analyze(spans []*trace.Span) *analysis {
	a := &analysis{
		dur:       make(map[string]time.Duration),
		count:     make(map[string]int),
		busy:      make(map[string]time.Duration),
		layerSelf: make(map[string]time.Duration),
	}
	byID := make(map[trace.SpanID]*node, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = &node{sp: sp, start: sp.StartTime, end: sp.EndTime}
		a.dur[sp.Name] += sp.Duration()
		a.count[sp.Name]++
	}
	var roots []*node
	for _, sp := range spans {
		n := byID[sp.ID]
		if p, ok := byID[sp.Parent]; ok { // span IDs are never zero
			p.kids = append(p.kids, n)
		} else {
			roots = append(roots, n)
		}
	}
	for _, r := range roots {
		if r.sp.Name != "bench.op" {
			continue
		}
		var request, exec, replay *node
		for _, k := range r.kids {
			switch k.sp.Name {
			case "bench.request":
				request = k
			case "server.ExecuteLocal", "server.Manager.Schedule":
				exec = k
			case "server.execute", "server.schedule":
				replay = k
			}
		}
		if request == nil || exec == nil || replay == nil {
			continue // the operation failed before its replay
		}
		a.ops++
		clamp(replay)
		wallShares(replay, func(n *node, d time.Duration) {
			a.layerSelf[layerOf(n.sp.Name)] += d
		})
		walk(replay, func(n *node) { a.busy[n.sp.Name] += busySelf(n) })
		oh := request.sp.Duration() - exec.sp.Duration()
		a.overhead += oh
		a.layerSelf["server"] += oh
	}
	return a
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

func walk(n *node, f func(*node)) {
	f(n)
	for _, k := range n.kids {
		walk(k, f)
	}
}

// clamp trims every child's interval to its parent's.
func clamp(n *node) {
	for _, k := range n.kids {
		if k.start.Before(n.start) {
			k.start = n.start
		}
		if k.end.After(n.end) {
			k.end = n.end
		}
		if k.end.Before(k.start) {
			k.end = k.start
		}
		clamp(k)
	}
}

// wallShares splits the wall time of the tree at root among its spans: at
// every instant, evenly among the running spans none of whose children is
// running. When one goroutine runs the tree this is each span's duration
// minus the part its children cover; when children run in parallel the
// shares still add up to the root's duration.
func wallShares(root *node, add func(*node, time.Duration)) {
	var all []*node
	var ts []time.Time
	walk(root, func(n *node) {
		all = append(all, n)
		ts = append(ts, n.start, n.end)
	})
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	running := func(n *node, from, to time.Time) bool {
		return !n.start.After(from) && !n.end.Before(to)
	}
	var front []*node
	for i := 0; i+1 < len(ts); i++ {
		from, to := ts[i], ts[i+1]
		if !to.After(from) {
			continue
		}
		front = front[:0]
		for _, n := range all {
			if !running(n, from, to) {
				continue
			}
			leaf := true
			for _, k := range n.kids {
				if running(k, from, to) {
					leaf = false
					break
				}
			}
			if leaf {
				front = append(front, n)
			}
		}
		share := to.Sub(from) / time.Duration(len(front))
		for _, n := range front {
			add(n, share)
		}
	}
}

// busySelf is a span's duration minus the union of its children's
// intervals.
func busySelf(n *node) time.Duration {
	kids := append([]*node(nil), n.kids...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	covered := time.Duration(0)
	var curStart, curEnd time.Time
	for i, k := range kids {
		if i == 0 || k.start.After(curEnd) {
			covered += curEnd.Sub(curStart)
			curStart, curEnd = k.start, k.end
		} else if k.end.After(curEnd) {
			curEnd = k.end
		}
	}
	covered += curEnd.Sub(curStart)
	return n.end.Sub(n.start) - covered
}

// printLayerTable writes the per-layer self-time table: each layer's
// share of a traced operation, against the handler's latency.
func printLayerTable(w io.Writer, a *analysis) {
	n := float64(a.ops)
	request := ms(a.dur["bench.request"]) / n
	fmt.Fprintf(w, "per-layer self time over %d traced operations (handler latency %.4f ms/op):\n", a.ops, request)
	for _, l := range layers {
		v := ms(a.layerSelf[l]) / n
		fmt.Fprintf(w, "  %-9s %10.4f ms/op %6.1f%%\n", l, v, 100*ratio(v, request))
	}
	sum := ms(a.tableSum()) / n
	fmt.Fprintf(w, "  %-9s %10.4f ms/op %6.1f%%\n", "sum", sum, 100*ratio(sum, request))
}

// writeChrome writes the benchmark's spans as a Chrome trace-event file.
func writeChrome(dir, workload string, seed uint64, spans []*trace.Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating chrome trace: %w", err)
	}
	if err := trace.WriteChrome(f, spans); err != nil {
		f.Close()
		return "", fmt.Errorf("writing chrome trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing chrome trace: %w", err)
	}
	return path, nil
}
