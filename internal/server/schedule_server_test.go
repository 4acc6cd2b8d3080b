package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"radiomis/internal/graph"
	"radiomis/internal/mis"
	"radiomis/internal/rng"
	"radiomis/internal/schedule"
)

func postSchedule(t *testing.T, ts *httptest.Server, body string) (*ScheduleResult, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res ScheduleResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("decoding schedule response: %v", err)
		}
	}
	return &res, resp
}

// rebuildRequestGraph reconstructs the conflict graph a request describes,
// so tests can validate the returned plan against it independently.
func rebuildRequestGraph(t *testing.T, req ScheduleRequest) *graph.Graph {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	g, err := req.buildGraph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkPlanAgainst verifies the wire-format batches are a valid schedule
// of g: a partition into independent sets.
func checkPlanAgainst(t *testing.T, g *graph.Graph, batches [][]int) {
	t.Helper()
	layer := make([]int, g.N())
	for v := range layer {
		layer[v] = -1
	}
	total := 0
	for i, b := range batches {
		for _, v := range b {
			if v < 0 || v >= g.N() {
				t.Fatalf("batch %d: vertex %d out of range", i, v)
			}
			if layer[v] >= 0 {
				t.Fatalf("vertex %d in batches %d and %d", v, layer[v], i)
			}
			layer[v] = i
			total++
		}
	}
	if total != g.N() {
		t.Fatalf("plan schedules %d of %d vertices", total, g.N())
	}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if w > v && layer[v] == layer[w] {
				t.Fatalf("edge {%d,%d} inside batch %d", v, w, layer[v])
			}
		}
	}
}

// TestScheduleEndpoint checks the happy path on a generated graph: a 200
// with a valid partition-into-independent-sets plan, consistent stats, and
// the schema/echo fields filled in.
func TestScheduleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	res, resp := postSchedule(t, ts, `{"family": "gnp", "n": 96, "seed": 7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if res.Schema != SchemaVersion || res.Algorithm != "linear" || res.Family != "gnp" || res.Cached {
		t.Errorf("result header = %+v, want schema %q, algorithm linear, family gnp, not cached", res, SchemaVersion)
	}
	g := graph.Generate(graph.FamilyGNP, 96, rng.New(7))
	checkPlanAgainst(t, g, res.Batches)
	if res.Stats.Vertices != g.N() || res.Stats.Batches != len(res.Batches) {
		t.Errorf("stats %+v inconsistent with %d batches on %d vertices", res.Stats, len(res.Batches), g.N())
	}
}

// TestScheduleExplicitEdges checks the explicit-graph shape: the plan must
// schedule exactly the given conflicts (here a triangle plus a pendant).
func TestScheduleExplicitEdges(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := `{"n": 4, "edges": [[0,1],[1,2],[0,2],[2,3]], "seed": 1}`
	res, resp := postSchedule(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if res.Family != "" {
		t.Errorf("explicit-graph result echoes family %q, want none", res.Family)
	}
	var req ScheduleRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	g := rebuildRequestGraph(t, req)
	checkPlanAgainst(t, g, res.Batches)
	// The triangle forces at least 3 batches: its vertices pairwise conflict.
	if res.Stats.Batches < 3 {
		t.Errorf("triangle scheduled in %d batches, want ≥ 3", res.Stats.Batches)
	}
}

// TestScheduleKeepsEdgeOrder checks that an explicit graph is planned with
// its edges in request order: the linear MIS breaks ties by neighbour
// order, so sorting the edges would change plans. Each shuffled request
// must plan exactly as a graph built by New plus AddEdge in that order.
func TestScheduleKeepsEdgeOrder(t *testing.T) {
	m, _ := newTestServer(t, Options{Workers: 1})
	r := rng.New(5)
	const n = 256 // at n = 64, sorting the edges changed only 1 of 8 plans
	for seed := uint64(0); seed < 4; seed++ {
		edges := graph.Generate(graph.FamilyGNP, n, rng.New(seed)).Edges()
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for i := range edges {
			if r.Intn(2) == 0 {
				edges[i][0], edges[i][1] = edges[i][1], edges[i][0]
			}
		}
		res, err := m.Schedule(context.Background(), ScheduleRequest{N: n, Edges: edges, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		g := graph.New(n)
		for _, e := range edges {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := schedule.NewPlanner().Batches(g, schedule.Options{Algorithm: "linear", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !equalBatches(res.Batches, plan.Batches()) {
			t.Errorf("seed %d: plan differs from the plan of the edges in request order", seed)
		}
	}
}

// TestScheduleCacheHit checks that an identical resubmission replays from
// the plan cache with Cached set and the same batches.
func TestScheduleCacheHit(t *testing.T) {
	m, ts := newTestServer(t, Options{Workers: 1})
	body := `{"family": "grid", "n": 64, "seed": 3}`
	first, _ := postSchedule(t, ts, body)
	if first.Cached {
		t.Fatal("first request claims to be cached")
	}
	second, _ := postSchedule(t, ts, body)
	if !second.Cached {
		t.Error("identical resubmission not served from cache")
	}
	if !equalBatches(first.Batches, second.Batches) {
		t.Error("cached replay differs from original plan")
	}
	if hits := m.sched.met.cacheHits.Value(); hits != 1 {
		t.Errorf("schedule cache hits = %d, want 1", hits)
	}
	// A different seed is a different key.
	third, _ := postSchedule(t, ts, `{"family": "grid", "n": 64, "seed": 4}`)
	if third.Cached {
		t.Error("different seed served from cache")
	}
}

func equalBatches(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestScheduleRadioAlgorithm checks that a radio algorithm serves the
// endpoint too: each layer is then a simulated radio-network MIS.
func TestScheduleRadioAlgorithm(t *testing.T) {
	if testing.Short() {
		t.Skip("radio layer simulation is slow")
	}
	_, ts := newTestServer(t, Options{Workers: 1})
	res, resp := postSchedule(t, ts, `{"algorithm": "cd", "family": "gnp", "n": 64, "seed": 11}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	g := graph.Generate(graph.FamilyGNP, 64, rng.New(11))
	checkPlanAgainst(t, g, res.Batches)
}

// scheduleBadRequests is the 400 surface of POST /v1/schedule, each body
// with its full error message: malformed JSON, unknown fields, bad
// algorithm/family, non-positive n, and invalid edge lists, where the first
// bad edge in request order is the one reported.
var scheduleBadRequests = []struct{ name, body, msg string }{
	{"malformed", `{"n": `, "decoding request: unexpected EOF"},
	{"unknown field", `{"n": 8, "bogus": 1}`, `decoding request: json: unknown field "bogus"`},
	{"bad algorithm", `{"algorithm": "quantum", "n": 8}`, `server: invalid job request: unknown algorithm "quantum" (known: ` +
		strings.Join(mis.Algorithms(), ", ") + `; see GET /v1/algorithms)`},
	{"bad family", `{"family": "moebius", "n": 8}`, `server: invalid job request: graph: unknown family "moebius"`},
	{"zero n", `{"family": "gnp", "n": 0}`, "server: invalid job request: n = 0, want ≥ 1"},
	{"edge range", `{"n": 2, "edges": [[0,5]]}`, "server: invalid job request: graph: edge {0,5} out of range [0,2)"},
	{"self loop", `{"n": 2, "edges": [[1,1]]}`, "server: invalid job request: graph: self-loop at 1"},
	{"duplicate edge", `{"n": 2, "edges": [[0,1],[1,0]]}`, "server: invalid job request: graph: duplicate edge {1,0}"},
	{"duplicate before range", `{"n":3,"edges":[[0,1],[1,0],[0,9]]}`, "server: invalid job request: graph: duplicate edge {1,0}"},
	{"range before duplicate", `{"n":3,"edges":[[0,9],[0,1],[1,0]]}`, "server: invalid job request: graph: edge {0,9} out of range [0,3)"},
	{"fraction", `{"n": 1.0}`, "decoding request: json: cannot unmarshal number 1.0 into Go struct field ScheduleRequest.n of type int"},
	{"negative seed", `{"n": 8, "seed": -1}`, "decoding request: json: cannot unmarshal number -1 into Go struct field ScheduleRequest.seed of type uint64"},
	{"seed overflow", `{"n": 8, "seed": 18446744073709551616}`,
		"decoding request: json: cannot unmarshal number 18446744073709551616 into Go struct field ScheduleRequest.seed of type uint64"},
	{"empty body", ``, "decoding request: EOF"},
}

// TestScheduleBadRequests checks that every scheduleBadRequests body gets
// a 400 with its message.
func TestScheduleBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, tc := range scheduleBadRequests {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		switch {
		case resp.StatusCode != http.StatusBadRequest:
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		case err != nil:
			t.Errorf("%s: decoding error response: %v", tc.name, err)
		case e.Error != tc.msg:
			t.Errorf("%s: error = %q, want %q", tc.name, e.Error, tc.msg)
		}
	}
}

// TestScheduleMetricsExposed checks the schedule instruments reach the
// Prometheus exposition, including the count-unit batch histograms with
// integer le bounds.
func TestScheduleMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	postSchedule(t, ts, `{"family": "gnp", "n": 48, "seed": 2}`)
	postSchedule(t, ts, `{"family": "gnp", "n": 48, "seed": 2}`) // cache hit
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"radiomisd_schedule_requests_total 2",
		"radiomisd_schedule_cache_hits_total 1",
		"# TYPE radiomisd_schedule_seconds histogram",
		"radiomisd_schedule_seconds_count 1",
		"# TYPE radiomisd_schedule_batches histogram",
		`radiomisd_schedule_batches_bucket{le="1"}`,
		"# TYPE radiomisd_schedule_batch_size histogram",
		`radiomisd_schedule_batch_size_bucket{le="10"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestScheduleNormalizeCanonicalizes pins the cache-key canonical form:
// defaults filled, family cleared for explicit graphs, equivalent requests
// sharing one key.
func TestScheduleNormalizeCanonicalizes(t *testing.T) {
	a := ScheduleRequest{N: 16, Seed: 9}
	b := ScheduleRequest{Algorithm: "linear", Family: "gnp", N: 16, Seed: 9}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Error("defaulted and explicit requests hash to different keys")
	}
	c := ScheduleRequest{Family: "grid", N: 4, Edges: [][2]int{{0, 1}}, Seed: 9}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.Family != "" {
		t.Errorf("explicit-edge request kept family %q after Normalize", c.Family)
	}
	// Endpoints are hashed as integers, not as their concatenated digits.
	d := ScheduleRequest{N: 24, Edges: [][2]int{{1, 23}}}
	e := ScheduleRequest{N: 24, Edges: [][2]int{{12, 3}}}
	for _, r := range []*ScheduleRequest{&d, &e} {
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if d.Key() == e.Key() {
		t.Error("edge lists [[1,23]] and [[12,3]] share a key")
	}
	// Absent and empty edge lists both mean a generated graph.
	f := ScheduleRequest{N: 16, Seed: 9, Edges: [][2]int{}}
	if err := f.Normalize(); err != nil {
		t.Fatal(err)
	}
	if f.Key() != a.Key() {
		t.Error("empty and absent edge lists hash to different keys")
	}
}

// TestScheduleManagerDirect drives Manager.Schedule without HTTP, checking
// the context is honored.
func TestScheduleManagerDirect(t *testing.T) {
	m := New(Options{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.Schedule(ctx, ScheduleRequest{N: 64, Seed: 1})
	if err == nil {
		t.Error("canceled context did not abort scheduling")
	}
}

// TestScheduleThroughput is the serving-rate smoke check: a warm daemon
// must sustain ≥ 1000 small-graph schedule calls per second through the
// HTTP endpoint (distinct seeds, so every call plans — no cache hits).
func TestScheduleThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput smoke check")
	}
	_, ts := newTestServer(t, Options{Workers: 1})
	client := ts.Client()
	call := func(seed int) {
		body := []byte(`{"family": "gnp", "n": 64, "seed": ` + strconv.Itoa(seed) + `}`)
		resp, err := client.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
	}
	call(0) // warm planner, CSR cache, connection pool
	const calls = 500
	start := time.Now()
	for i := 1; i <= calls; i++ {
		call(i)
	}
	elapsed := time.Since(start)
	rate := float64(calls) / elapsed.Seconds()
	t.Logf("schedule throughput: %.0f calls/sec (%d calls in %v)", rate, calls, elapsed)
	if raceEnabled {
		// CI enforces the floor in a separate non-race step.
		return
	}
	if rate < 1000 {
		t.Errorf("throughput = %.0f calls/sec, want ≥ 1000", rate)
	}
}
