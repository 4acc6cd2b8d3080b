package mis

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// laneAlgos are the registry entries with lockstep lane programs; the
// parity tests below pin each one's lane twin bit-identical to its scalar
// program.
var laneAlgos = []string{"cd", "beep", "naive-cd"}

func manySeeds(seed uint64, trials int) []uint64 {
	seeds := make([]uint64, trials)
	for i := range seeds {
		seeds[i] = rng.Mix(seed, uint64(i))
	}
	return seeds
}

// runManyBoth runs the same batch on both engines and asserts per-trial
// bit-identical results, returning the (shared) outcome.
func runManyBoth(t *testing.T, name string, g *graph.Graph, p Params, seeds []uint64) []*Result {
	t.Helper()
	scalar, err := RunMany(name, g, p, ManyOpts{Seeds: seeds, Engine: EngineScalar})
	if err != nil {
		t.Fatalf("scalar RunMany: %v", err)
	}
	lock, err := RunMany(name, g, p, ManyOpts{Seeds: seeds, Engine: EngineLockstep})
	if err != nil {
		t.Fatalf("lockstep RunMany: %v", err)
	}
	if len(lock) != len(scalar) {
		t.Fatalf("lockstep returned %d results, scalar %d", len(lock), len(scalar))
	}
	for i := range scalar {
		if !reflect.DeepEqual(lock[i], scalar[i]) {
			t.Fatalf("trial %d diverges between engines:\nlockstep: %+v\nscalar:   %+v", i, lock[i], scalar[i])
		}
	}
	return scalar
}

func TestRunManyParity(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"cycle33": graph.Cycle(33),
		"gnp96":   graph.GNP(96, 6.0/96, rng.New(17)),
		"star17":  graph.Star(17),
		"grid8x8": graph.Grid2D(8, 8),
	}
	for gname, g := range graphs {
		p := ParamsDefault(g.N(), g.MaxDegree())
		for _, algo := range laneAlgos {
			// Trial counts straddle the 64-lane chunk boundary: one chunk
			// partial, one exact, and a ragged second chunk.
			for _, trials := range []int{1, 63, 64, 65} {
				t.Run(fmt.Sprintf("%s/%s/trials=%d", algo, gname, trials), func(t *testing.T) {
					results := runManyBoth(t, algo, g, p, manySeeds(uint64(trials), trials))
					// Each result must also match the single-trial entry point.
					seeds := manySeeds(uint64(trials), trials)
					for _, i := range []int{0, len(results) - 1} {
						single, err := Run(algo, g, p, RunOpts{Seed: seeds[i]})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(results[i], single) {
							t.Fatalf("trial %d diverges from single-trial Run", i)
						}
					}
				})
			}
		}
	}
}

// TestRunManyWideRankBits runs the twins past 16-bit counters: with
// RankBits = 65,540 on a triangle, a twin that narrows B or its bit
// counter to uint16 stops competing after a few rounds, while the scalar
// program competes for all 65,540 bits.
func TestRunManyWideRankBits(t *testing.T) {
	g := graph.Cycle(3)
	p := ParamsDefault(g.N(), g.MaxDegree())
	p.Beta = 65540 / float64(p.Log2N())
	if b := p.RankBits(); b != 65540 {
		t.Fatalf("RankBits = %d, want 65540", b)
	}
	for _, algo := range laneAlgos {
		t.Run(algo, func(t *testing.T) {
			runManyBoth(t, algo, g, p, manySeeds(5, 2))
		})
	}
}

// TestRunManyPhasesRunOut gives the twins budgets of one or two phases of
// two to four bits on a dense graph, so some lanes run out of phases and
// halt StatusUndecided: a path that default parameters almost never
// reach.
func TestRunManyPhasesRunOut(t *testing.T) {
	g := graph.GNP(48, 0.3, rng.New(3))
	for _, budget := range []struct{ phases, bits int }{{1, 2}, {1, 4}, {2, 4}} {
		p := ParamsDefault(g.N(), g.MaxDegree())
		p.C = float64(budget.phases) / float64(p.Log2N())
		p.Beta = float64(budget.bits) / float64(p.Log2N())
		if p.LubyPhases() != budget.phases || p.RankBits() != budget.bits {
			t.Fatalf("L, B = %d, %d, want %d, %d", p.LubyPhases(), p.RankBits(), budget.phases, budget.bits)
		}
		for _, algo := range laneAlgos {
			t.Run(fmt.Sprintf("%s/L=%d/B=%d", algo, budget.phases, budget.bits), func(t *testing.T) {
				undecided := 0
				for _, res := range runManyBoth(t, algo, g, p, manySeeds(7, radio.MaxLanes)) {
					undecided += res.Undecided
				}
				if undecided == 0 {
					t.Fatal("no node ran out of phases")
				}
			})
		}
	}
}

func TestRunManyAutoUsesLockstepResults(t *testing.T) {
	// EngineAuto must be indistinguishable from either explicit engine.
	g := graph.GNP(64, 0.1, rng.New(5))
	p := ParamsDefault(g.N(), g.MaxDegree())
	seeds := manySeeds(9, 10)
	auto, err := RunMany("cd", g, p, ManyOpts{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	want := runManyBoth(t, "cd", g, p, seeds)
	if !reflect.DeepEqual(auto, want) {
		t.Fatal("EngineAuto results diverge from explicit engines")
	}
}

func TestRunManyScalarFallbacks(t *testing.T) {
	g := graph.GNP(48, 0.1, rng.New(7))
	p := ParamsDefault(g.N(), g.MaxDegree())
	seeds := manySeeds(3, 4)
	// Algorithms without a lane program fall back to scalar under auto and
	// still match the single-trial path.
	for _, algo := range []string{"nocd", "linear"} {
		results, err := RunMany(algo, g, p, ManyOpts{Seeds: seeds})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for i, seed := range seeds {
			single, err := Run(algo, g, p, RunOpts{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(results[i], single) {
				t.Fatalf("%s trial %d diverges from single-trial Run", algo, i)
			}
		}
	}
}

func TestRunManyEngineValidation(t *testing.T) {
	g := graph.Cycle(8)
	p := ParamsDefault(8, 2)
	seeds := manySeeds(1, 2)
	cases := []struct {
		name string
		algo string
		opts ManyOpts
		want string
	}{
		{"unknown engine", "cd", ManyOpts{Seeds: seeds, Engine: "warp"}, "unknown engine"},
		{"unknown algorithm", "nope", ManyOpts{Seeds: seeds}, "unknown algorithm"},
		{"no lane program", "nocd", ManyOpts{Seeds: seeds, Engine: EngineLockstep}, "no lockstep lane program"},
		{"sequential", "linear", ManyOpts{Seeds: seeds, Engine: EngineLockstep}, "no lockstep lane program"},
		{"faults", "cd", ManyOpts{Seeds: seeds, Engine: EngineLockstep,
			Faults: faults.Profile{Loss: 0.1}}, "fault injection"},
		{"observer", "cd", ManyOpts{Seeds: seeds, Engine: EngineLockstep,
			Observer: &radio.MultiObserver{}}, "observers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunMany(tc.algo, g, p, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
	// Faults and observers remain usable on the scalar engine.
	if _, err := RunMany("cd", g, p, ManyOpts{Seeds: seeds, Engine: EngineScalar,
		Faults: faults.Profile{Loss: 0.1}}); err != nil {
		t.Fatalf("scalar engine with faults: %v", err)
	}
}

func TestRunManyCancellation(t *testing.T) {
	g := graph.Cycle(16)
	p := ParamsDefault(16, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, engine := range []string{EngineScalar, EngineLockstep} {
		_, err := RunMany("cd", g, p, ManyOpts{Seeds: manySeeds(2, 3), Ctx: ctx, Engine: engine})
		if !errors.Is(err, radio.ErrAborted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error = %v, want ErrAborted wrapping context.Canceled", engine, err)
		}
		if !strings.Contains(err.Error(), "trial 0") {
			t.Fatalf("%s: error = %v, want first-trial attribution", engine, err)
		}
	}
}

func TestRunManyEmptyAndPooled(t *testing.T) {
	g := graph.Cycle(12)
	p := ParamsDefault(12, 2)
	if results, err := RunMany("cd", g, p, ManyOpts{}); err != nil || len(results) != 0 {
		t.Fatalf("empty batch = (%v, %v), want ([], nil)", results, err)
	}
	// A pooled rerun must be bit-identical to the cold run.
	pool := radio.NewPool(0)
	defer pool.Close()
	ctx := radio.WithPool(context.Background(), pool)
	seeds := manySeeds(11, 65)
	cold, err := RunMany("cd", g, p, ManyOpts{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	for rerun := 0; rerun < 2; rerun++ {
		warm, err := RunMany("cd", g, p, ManyOpts{Seeds: seeds, Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("pooled rerun %d diverges from cold run", rerun)
		}
	}
}

func TestLockstepCapable(t *testing.T) {
	want := map[string]bool{
		"cd": true, "beep": true, "naive-cd": true,
		"nocd": false, "lowdegree": false, "naive-nocd": false,
		"unknown-delta": false, "linear": false, "nope": false,
	}
	for name, capable := range want {
		if got := LockstepCapable(name); got != capable {
			t.Errorf("LockstepCapable(%q) = %v, want %v", name, got, capable)
		}
	}
	for _, info := range Infos() {
		if info.Lockstep != want[info.Name] {
			t.Errorf("Infos()[%s].Lockstep = %v, want %v", info.Name, info.Lockstep, want[info.Name])
		}
	}
}

// collectManyFunc runs RunManyFunc and copies every Result out inside the
// callback, checking that trials arrive once each, in order.
func collectManyFunc(name string, g *graph.Graph, p Params, opts ManyOpts) ([]*Result, error) {
	var out []*Result
	err := RunManyFunc(name, g, p, opts, func(i int, res *Result) error {
		if i != len(out) {
			return fmt.Errorf("trial %d handed over after %d trials", i, len(out))
		}
		out = append(out, res.clone())
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) != len(opts.Seeds) {
		return nil, fmt.Errorf("%d trials handed over, want %d", len(out), len(opts.Seeds))
	}
	return out, nil
}

// freshLockstep runs seeds on a newly built lane twin with no pool, the
// reference the cached path must match.
func freshLockstep(t *testing.T, name string, g *graph.Graph, p Params, seeds []uint64) []*Result {
	t.Helper()
	spec := algoSpecs[name]
	lp := spec.lane.New().(*laneRun).lp
	lp.setParams(p)
	var out []*Result
	for off := 0; off < len(seeds); off += radio.MaxLanes {
		chunk := seeds[off:min(off+radio.MaxLanes, len(seeds))]
		err := radio.RunLockstep(g, radio.Config{Model: spec.model}, lp, chunk, func(_ int, rr *radio.Result, lerr error) error {
			if lerr != nil {
				return lerr
			}
			out = append(out, newResult(rr).clone())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRunManyFuncParity pins the callback form to the slice form and to
// the scalar engine on a job-sized grid and a G(n, p) graph, at lane
// counts that leave the last 64-lane chunk partial, exact or ragged. The
// callback form runs on a cached pool, the slice form on fresh scratch.
// The scalar engine checks every trial on G(n, p) and, to keep the race
// run short, the trials at the chunk boundaries on the grid.
func TestRunManyFuncParity(t *testing.T) {
	graphs := []struct {
		name   string
		g      *graph.Graph
		scalar []int // trials checked against the scalar engine; nil: all
	}{
		{"grid32x32", graph.Grid2D(32, 32), []int{0, 63, 64, 129}},
		{"gnp200", graph.GNP(200, 6.0/200, rng.New(23)), nil},
	}
	for _, gc := range graphs {
		g, gname := gc.g, gc.name
		p := ParamsDefault(g.N(), g.MaxDegree())
		for _, algo := range laneAlgos {
			all := manySeeds(0xca11, 130)
			for _, trials := range []int{1, 64, 65, 130} {
				t.Run(fmt.Sprintf("%s/%s/trials=%d", algo, gname, trials), func(t *testing.T) {
					seeds := all[:trials]
					slice, err := RunMany(algo, g, p, ManyOpts{Seeds: seeds, Engine: EngineLockstep})
					if err != nil {
						t.Fatal(err)
					}
					pool := radio.AcquirePool(1)
					defer pool.Release()
					each, err := collectManyFunc(algo, g, p, ManyOpts{Seeds: seeds, Ctx: radio.WithPool(context.Background(), pool)})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(each, slice) {
						t.Fatal("callback form diverges from the slice form")
					}
					check := gc.scalar
					if check == nil {
						for i := range seeds {
							check = append(check, i)
						}
					}
					for _, i := range check {
						if i >= trials {
							continue
						}
						single, err := Run(algo, g, p, RunOpts{Seed: seeds[i]})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(each[i], single) {
							t.Fatalf("trial %d diverges from the scalar engine", i)
						}
					}
				})
			}
		}
	}
}

// TestRunManyCachedReuse serves one pool and the lane twin cache a
// sequence of graphs that shrink, change shape and grow again, with
// changed Params, and requires the fresh-run results every time.
func TestRunManyCachedReuse(t *testing.T) {
	grid := graph.Grid2D(32, 32)
	changed := ParamsDefault(grid.N(), grid.MaxDegree())
	changed.Beta *= 2
	changed.C *= 0.5
	steps := []struct {
		name string
		g    *graph.Graph
		p    Params
	}{
		{"grid1024", grid, ParamsDefault(grid.N(), grid.MaxDegree())},
		{"grid64", graph.Grid2D(8, 8), ParamsDefault(64, 4)},
		{"gnp200", graph.GNP(200, 6.0/200, rng.New(29)), Params{}},
		{"grid1024-changed", grid, changed},
	}
	pool := radio.AcquirePool(1)
	defer pool.Release()
	ctx := radio.WithPool(context.Background(), pool)
	for _, algo := range laneAlgos {
		for i, st := range steps {
			p := st.p
			if p.N == 0 {
				p = ParamsDefault(st.g.N(), st.g.MaxDegree())
			}
			seeds := manySeeds(uint64(40+i), 65)
			got, err := collectManyFunc(algo, st.g, p, ManyOpts{Seeds: seeds, Ctx: ctx})
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, st.name, err)
			}
			if !reflect.DeepEqual(got, freshLockstep(t, algo, st.g, p, seeds)) {
				t.Fatalf("%s/%s: cached run diverges from a fresh one", algo, st.name)
			}
		}
	}
}

// TestRunManyFuncCallbackError ends a batch from the callback, in the
// second lockstep chunk and on the scalar engine: RunManyFunc returns that
// error unchanged, after exactly the trials before it, and the next call
// on the caches is still correct.
func TestRunManyFuncCallbackError(t *testing.T) {
	g := graph.GNP(96, 6.0/96, rng.New(31))
	p := ParamsDefault(g.N(), g.MaxDegree())
	seeds := manySeeds(8, 130)
	pool := radio.AcquirePool(1)
	defer pool.Release()
	ctx := radio.WithPool(context.Background(), pool)
	stop := errors.New("stop")
	for _, engine := range []string{EngineLockstep, EngineScalar} {
		handed := 0
		err := RunManyFunc("cd", g, p, ManyOpts{Seeds: seeds[:72], Ctx: ctx, Engine: engine}, func(i int, _ *Result) error {
			handed++
			if i == 70 {
				return stop
			}
			return nil
		})
		if err != stop {
			t.Fatalf("%s: err = %v, want the callback's error unchanged", engine, err)
		}
		if handed != 71 {
			t.Fatalf("%s: %d trials handed over, want 71", engine, handed)
		}
	}
	got, err := collectManyFunc("cd", g, p, ManyOpts{Seeds: seeds, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, freshLockstep(t, "cd", g, p, seeds)) {
		t.Fatal("the call after a stopped batch diverges from a fresh run")
	}
}

// FuzzRunManyParity drives random divergence points — graph shape, lane
// algorithm, ragged trial counts, per-trial seed offsets, mid-run
// cancellation, and small phase and bit budgets — asserting the lockstep
// engine's per-lane results stay bit-identical to the scalar engine's,
// with seeds derived as rng.Mix(seed, offset+i). A non-zero phases or
// bits overrides L or B with a value in 1..8, where lanes run out of
// phases and lose at the last bit often; the last three seeds are
// TestRunManyPhasesRunOut's budgets.
func FuzzRunManyParity(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint8(7), uint8(40), uint8(0), false, uint8(0), uint8(0))
	f.Add(uint64(2), uint64(9), uint8(65), uint8(90), uint8(1), false, uint8(0), uint8(0))
	f.Add(uint64(3), uint64(100), uint8(64), uint8(10), uint8(2), true, uint8(0), uint8(0))
	f.Add(uint64(4), uint64(3), uint8(63), uint8(1), uint8(0), false, uint8(0), uint8(0))
	f.Add(uint64(5), uint64(0), uint8(64), uint8(48), uint8(0), false, uint8(1), uint8(2))
	f.Add(uint64(6), uint64(0), uint8(64), uint8(48), uint8(1), false, uint8(1), uint8(4))
	f.Add(uint64(7), uint64(0), uint8(64), uint8(48), uint8(2), false, uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, seed, offset uint64, trials, n, algoIdx uint8, cancel bool, phases, bits uint8) {
		if trials == 0 || trials > 80 || n == 0 || n > 100 {
			t.Skip()
		}
		algo := laneAlgos[int(algoIdx)%len(laneAlgos)]
		g := graph.GNP(int(n), 4.0/float64(n), rng.New(seed))
		p := ParamsDefault(g.N(), max(g.MaxDegree(), 1))
		if phases != 0 {
			p.C = float64((phases-1)%8+1) / float64(p.Log2N())
		}
		if bits != 0 {
			p.Beta = float64((bits-1)%8+1) / float64(p.Log2N())
		}
		seeds := make([]uint64, trials)
		for i := range seeds {
			seeds[i] = rng.Mix(seed, offset+uint64(i))
		}
		ctx := context.Background()
		if cancel {
			c, cancelFn := context.WithCancel(ctx)
			cancelFn()
			ctx = c
		}
		scalar, serr := RunMany(algo, g, p, ManyOpts{Seeds: seeds, Ctx: ctx, Engine: EngineScalar})
		// The lockstep side runs the callback form on a cached pool, so
		// the fuzzer's calls also exercise the reuse of pools, lane twins
		// and lane results across graphs, Params and lane counts.
		pool := radio.AcquirePool(1)
		lock, lerr := collectManyFunc(algo, g, p, ManyOpts{Seeds: seeds, Ctx: radio.WithPool(ctx, pool), Engine: EngineLockstep})
		pool.Release()
		if (serr == nil) != (lerr == nil) {
			t.Fatalf("error divergence: scalar=%v lockstep=%v", serr, lerr)
		}
		if serr != nil {
			if serr.Error() != lerr.Error() {
				t.Fatalf("error text divergence:\nscalar:   %v\nlockstep: %v", serr, lerr)
			}
			return
		}
		for i := range scalar {
			if !reflect.DeepEqual(lock[i], scalar[i]) {
				t.Fatalf("trial %d diverges:\nlockstep: %+v\nscalar:   %+v", i, lock[i], scalar[i])
			}
		}
	})
}
