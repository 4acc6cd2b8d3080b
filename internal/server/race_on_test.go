//go:build race

package server

// raceEnabled reports whether the race detector is active; throughput
// floors skip under it because instrumentation slows the handlers
// several-fold.
const raceEnabled = true
