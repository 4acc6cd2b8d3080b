package schedule

import (
	"runtime"
	"testing"
	"time"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

// TestBatchesLeavesNoGoroutines makes one-shot radio-algorithm Batches
// calls at four Ps on a 2,048-node graph and lets the GC drop the cached
// planners after each, without a Close: no goroutine may outlive the
// calls, so a planner's radio pool must hold none.
func TestBatchesLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := graph.GNP(2048, 8.0/2048, rng.New(25))
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := Batches(g, Options{Algorithm: "cd", Seed: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
	}
	// A node goroutine can still be exiting right after its run returned.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the calls, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
