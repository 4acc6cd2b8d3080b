package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"radiomis/internal/graph"
	"radiomis/internal/mis"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// pingProgram is a short seeded program: six rounds of transmitting or
// listening on a coin, returning how many listens heard something.
func pingProgram(env *radio.Env) int64 {
	var heard int64
	for i := 0; i < 6; i++ {
		if env.Rand().Int63()&1 == 1 {
			env.TransmitBit()
		} else if env.Listen().Kind != radio.Silence {
			heard++
		}
	}
	return heard
}

// TestRepeatBatchesSharesPoolCache runs concurrent RepeatBatches calls on
// the process-wide pool cache at four Ps: scalar trials and ragged
// lockstep batches. Every call must return the results of pool-less runs,
// and no goroutine may outlive the calls.
func TestRepeatBatchesSharesPoolCache(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()

	big := graph.Cycle(1024)
	scalarTrial := func(ctx context.Context, seed uint64) (Metrics, error) {
		res, err := radio.Run(big, radio.Config{Model: radio.ModelCD, Ctx: ctx, Seed: seed}, pingProgram)
		if err != nil {
			return nil, err
		}
		var heard int64
		for _, out := range res.Outputs {
			heard += out
		}
		return Metrics{"rounds": float64(res.Rounds), "heard": float64(heard)}, nil
	}
	small := graph.Grid2D(8, 8)
	p := mis.ParamsDefault(small.N(), small.MaxDegree())
	lockBatch := func(ctx context.Context, _ int, seeds []uint64) ([]Metrics, error) {
		var ms []Metrics
		err := mis.RunManyFunc("cd", small, p, mis.ManyOpts{Seeds: seeds, Ctx: ctx, Engine: mis.EngineLockstep},
			func(_ int, res *mis.Result) error {
				ms = append(ms, Metrics{"rounds": float64(res.Rounds), "avgEnergy": res.AvgEnergy(), "size": float64(res.SetSize())})
				return nil
			})
		return ms, err
	}

	scalarOpts := Options{Trials: 4, Seed: 3, Parallelism: 2}
	lockOpts := Options{Trials: 130, Seed: 5, Parallelism: 2}
	seeds := func(o Options) []uint64 {
		s := make([]uint64, o.Trials)
		for i := range s {
			s[i] = rng.Mix(o.Seed, uint64(i))
		}
		return s
	}
	var wantScalar []Metrics
	for _, seed := range seeds(scalarOpts) {
		m, err := scalarTrial(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		wantScalar = append(wantScalar, m)
	}
	wantLock, err := lockBatch(context.Background(), 0, seeds(lockOpts))
	if err != nil {
		t.Fatal(err)
	}
	same := func(agg *Aggregate, want []Metrics) error {
		for _, name := range agg.Names() {
			for i, v := range agg.Metric(name) {
				if v != want[i][name] {
					return fmt.Errorf("trial %d %s = %v, want %v", i, name, v, want[i][name])
				}
			}
		}
		if agg.Trials != len(want) || len(agg.Names()) != len(want[0]) {
			return fmt.Errorf("aggregate has %d trials and metrics %v", agg.Trials, agg.Names())
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for call := 0; call < 2; call++ {
				agg, err := Repeat(context.Background(), scalarOpts, scalarTrial)
				if err == nil {
					err = same(agg, wantScalar)
				}
				if err != nil {
					t.Errorf("scalar call: %v", err)
					return
				}
				agg, err = RepeatBatches(context.Background(), lockOpts, radio.MaxLanes, lockBatch)
				if err == nil {
					err = same(agg, wantLock)
				}
				if err != nil {
					t.Errorf("lockstep call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// A node goroutine can still be exiting right after its run returned.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the calls, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
