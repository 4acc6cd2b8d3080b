package rng

import (
	"fmt"
	"math/rand"
	"testing"
)

// geometricMask is the loop BackoffMask replaces: iters GeometricHalf
// draws, each capped at slots, as Snd-EBackoff's slot mask.
func geometricMask(r *rand.Rand, slots, iters int) uint64 {
	var mask uint64
	for i := 0; i < iters; i++ {
		x := GeometricHalf(r)
		if x > slots {
			x = slots
		}
		mask |= 1 << (i*slots + x - 1)
	}
	return mask
}

// checkBackoffMask compares BackoffMask from state against the
// GeometricHalf loop on rand.New(NewSource(state)): the mask, and the
// state each leaves behind.
func checkBackoffMask(t *testing.T, state uint64, slots, iters int) {
	t.Helper()
	want := NewSource(state)
	wantMask := geometricMask(rand.New(want), slots, iters)
	got := NewSource(state)
	if mask := got.BackoffMask(slots, iters); mask != wantMask || got.state != want.state {
		t.Fatalf("state %#x, %d slots, %d iterations: BackoffMask = %#x leaving state %#x, GeometricHalf loop %#x leaving %#x",
			state, slots, iters, mask, got.state, wantMask, want.state)
	}
}

// tailRun returns the first state from which the coins of draws
// from+1..from+n, the low bits of their Int63s, all come up tails.
func tailRun(from, n int) uint64 {
next:
	for state := uint64(0); ; state++ {
		for j := from; j < from+n; j++ {
			if mix64(state+uint64(j+1)*gamma)&2 != 0 {
				continue next
			}
		}
		return state
	}
}

func TestBackoffMaskMatchesGeometricHalf(t *testing.T) {
	// Ordinary states, and states with twelve tails in a row placed so
	// that they straddle the words BackoffMask computes: a run from the
	// first draw leaves the first word (8 coins) of a call of two or three
	// iterations without a head, and a run over draws 57–68 crosses the end
	// of the first word (64 coins) of a one-slot call of 57 or more
	// iterations, which cannot have finished by draw 57.
	states := []uint64{0, 1, 0x9e3779b97f4a7c15, 1 << 63, ^uint64(0)}
	for s := uint64(2); s < 40; s++ {
		states = append(states, Mix(7, s))
	}
	for _, from := range []int{0, 2, 5, 30, 52, 56, 60} {
		states = append(states, tailRun(from, 12))
	}
	for _, state := range states {
		for slots := 1; slots <= 63; slots++ {
			for iters := 0; iters <= 63/slots; iters++ {
				checkBackoffMask(t, state, slots, iters)
			}
		}
	}
	// Every (slots, iters) from the same source in turn, as Send's runs
	// follow one another on a node's stream.
	want, got := NewSource(11), NewSource(11)
	r := rand.New(want)
	for slots := 1; slots <= 63; slots++ {
		for iters := 0; iters <= 63/slots; iters++ {
			if w, g := geometricMask(r, slots, iters), got.BackoffMask(slots, iters); w != g || want.state != got.state {
				t.Fatalf("%d slots, %d iterations in sequence: BackoffMask %#x, GeometricHalf loop %#x", slots, iters, g, w)
			}
		}
	}
}

func FuzzBackoffMask(f *testing.F) {
	f.Add(uint64(0), uint8(2), uint8(31))
	f.Add(uint64(1), uint8(1), uint8(63))
	f.Add(tailRun(0, 12), uint8(2), uint8(2))
	f.Add(tailRun(56, 12), uint8(1), uint8(63))
	f.Add(uint64(7), uint8(10), uint8(1))
	f.Fuzz(func(t *testing.T, state uint64, slots, iters uint8) {
		s := 1 + int(slots)%63
		checkBackoffMask(t, state, s, int(iters)%(63/s+1))
	})
}

var maskSink uint64

// BenchmarkBackoffMask times Snd-EBackoff's slot draws per iteration:
// BackoffMask against the GeometricHalf loop it replaces, for 2 and 10
// slots, in whole 63-round runs and in 1-iteration runs.
func BenchmarkBackoffMask(b *testing.B) {
	for _, slots := range []int{2, 10} {
		for _, iters := range []int{63 / slots, 1} {
			name := fmt.Sprintf("slots=%d/iters=%d", slots, iters)
			b.Run("GeometricHalf/"+name, func(b *testing.B) {
				r := rand.New(NewSource(1))
				for i := 0; i < b.N; i++ {
					maskSink += geometricMask(r, slots, iters)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters), "ns/iter")
			})
			b.Run("BackoffMask/"+name, func(b *testing.B) {
				s := NewSource(1)
				for i := 0; i < b.N; i++ {
					maskSink += s.BackoffMask(slots, iters)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters), "ns/iter")
			})
		}
	}
}
