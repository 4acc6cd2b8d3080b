// Package rng provides deterministic, splittable randomness for the
// simulator. Every node in a simulated radio network owns a private random
// stream derived from a single run seed and the node's ID, so whole runs are
// reproducible from one integer while streams of distinct nodes remain
// statistically independent.
//
// The derivation uses SplitMix64 (Steele, Lea, Flood 2014), the standard
// generator for seeding other generators: it passes BigCrush, has a full
// 2^64 period, and two streams seeded from different SplitMix64 outputs are
// effectively uncorrelated.
package rng

import (
	"math/bits"
	"math/rand"
)

// SplitMix64 advances the given state by one step and returns the next
// 64-bit output. It is the canonical mixing function used for seed
// derivation.
func SplitMix64(state uint64) (next uint64, out uint64) {
	state += gamma
	return state, mix64(state)
}

// gamma is SplitMix64's state increment: the k-th state after s is
// s + k·gamma.
const gamma = 0x9e3779b97f4a7c15

// mix64 is SplitMix64's output function of an advanced state.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix returns a well-scrambled 64-bit value deterministically derived from
// the pair (seed, stream). It is used to give every (run, node) pair its own
// independent seed.
func Mix(seed, stream uint64) uint64 {
	// Feed both words through two rounds of SplitMix64 so that related
	// inputs (e.g. consecutive node IDs) map to unrelated outputs.
	s := seed ^ bits.RotateLeft64(stream, 32) ^ 0xd1b54a32d192ed03
	s, a := SplitMix64(s)
	s ^= stream * 0x9e3779b97f4a7c15
	_, b := SplitMix64(s)
	return a ^ bits.RotateLeft64(b, 17)
}

// New returns a deterministic *rand.Rand for the given seed.
func New(seed uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)))
}

// Source is a rand.Source64 backed by SplitMix64. Unlike the stock
// math/rand source (607 words of state, ~12µs to seed), it seeds in one
// store, which matters because the simulator creates one stream per
// (trial, node) pair — at n=4096 the stock source spends more time seeding
// than simulating. Because the source is this simple, its draws can be
// replayed without it: the lockstep engine's lane twins step SplitMix64
// directly, and BackoffMask computes the coins of many draws in one pass.
// A radio.Env holds its node's Source by value and wraps it in the
// *rand.Rand it hands the program, so both draw from one stream.
type Source struct{ state uint64 }

// NewSource returns a Source seeded with state. Draw k from NewSource(s)
// equals the k-th SplitMix64 output of s, so callers that need to replay a
// stream without a *rand.Rand (the lockstep engine) can iterate SplitMix64
// directly.
func NewSource(state uint64) *Source { return &Source{state: state} }

// NodeSource returns the private stream of node id under the given run
// seed as a value: SplitMix64 with initial state Mix(seed, id).
func NodeSource(seed uint64, id int) Source { return Source{state: Mix(seed, uint64(id))} }

// Seed, Int63 and Uint64 make a *Source a rand.Source64.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }
func (s *Source) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *Source) Uint64() uint64 {
	var out uint64
	s.state, out = SplitMix64(s.state)
	return out
}

// ForNode returns the private random stream of node id under the given run
// seed. Distinct (seed, id) pairs yield independent streams. The stream is
// SplitMix64 with initial state Mix(seed, id): Int63 draw k is output k
// shifted right one bit, so the lockstep engine can reproduce it without
// allocating a generator per (node, lane).
func ForNode(seed uint64, id int) *rand.Rand {
	s := NodeSource(seed, id)
	return rand.New(&s)
}

// Geometric samples from the geometric distribution with success parameter
// p in (0, 1]: the number of Bernoulli(p) trials up to and including the
// first success. The minimum return value is 1.
func Geometric(r *rand.Rand, p float64) int {
	if p >= 1 {
		return 1
	}
	n := 1
	for r.Float64() >= p {
		n++
	}
	return n
}

// GeometricHalf samples a geometric variate with parameter 1/2 using single
// coin flips (the distribution used by Snd-EBackoff in the paper).
func GeometricHalf(r *rand.Rand) int {
	n := 1
	for r.Int63()&1 == 0 {
		n++
	}
	return n
}

// BackoffMask draws the slots of iters iterations of Snd-EBackoff with
// slots slots each and returns them as one mask: iteration i picks slot x
// with P(x = j) = 2^-j, the last slot absorbing the tail, and sets bit
// i·slots + x − 1. Its draws are exactly those of iters calls of
// GeometricHalf on rand.New(s), each capped at slots, and it leaves s where
// those calls leave it. slots must be at least 1 and iters·slots at most
// 64.
//
// A GeometricHalf call flips coins, the low bit of an Int63 (bit 1 of a
// SplitMix64 output), up to and including the first head. SplitMix64's
// k-th state after s is s + k·gamma, so BackoffMask computes the coins of
// the next draws into a coin word in one pass, without a branch on their
// outcome, and reads each iteration's variate off the distance to the next
// set bit. A word holds the coins the remaining iterations are expected to
// need, two each, and two more, rounded up to a multiple of four and at
// most 64; a later word carries on if they need more. The coins after the
// last head are thrown away, not kept for a later call: the state advances
// by the coins consumed only.
func (s *Source) BackoffMask(slots, iters int) uint64 {
	var mask uint64
	state := s.state
	// base is iteration i's first mask bit, i·slots; tails counts the
	// current iteration's tails in earlier words.
	i, base, tails := 0, 0, 0
	for i < iters {
		n := min(64, (2*(iters-i)+5)&^3)
		w := coinWord(state, n)
		// last is the position of the previous head, counted back past
		// the word's start over the carried tails.
		last := -1 - tails
		for ; w != 0 && i < iters; i++ {
			head := bits.TrailingZeros64(w)
			w &= w - 1
			mask |= 1 << ((base + min(head-last, slots) - 1) & 63) // &63 drops the shift's range check
			base += slots
			last = head
		}
		if i == iters {
			state += uint64(last+1) * gamma
			break
		}
		// The word ran out of heads: its remaining coins are tails.
		tails = n - 1 - last
		state += uint64(n) * gamma
	}
	s.state = state
	return mask
}

// Multiples of gamma, modulo 2^64: the states two, three and four draws
// ahead.
const (
	gamma2 = 2 * gamma & (1<<64 - 1)
	gamma3 = 3 * gamma & (1<<64 - 1)
	gamma4 = 4 * gamma & (1<<64 - 1)
)

// coinWord returns the coins of the n draws after state, n a multiple of
// four and at most 64: bit j is bit 1 of SplitMix64 output j+1, the low
// bit of that draw's Int63. It mixes four states a step, whose multiplies
// overlap.
func coinWord(state uint64, n int) (w uint64) {
	for j := 0; j < n; j += 4 {
		a := mix64(state + gamma)
		b := mix64(state + gamma2)
		c := mix64(state + gamma3)
		d := mix64(state + gamma4)
		state += gamma4
		w |= (a>>1&1 | b&2 | c<<1&4 | d<<2&8) << (j & 63)
	}
	return w
}

// Bits returns a uniformly random bit string of length n, most significant
// bit first. It is the competition rank used by the MIS algorithms.
func Bits(r *rand.Rand, n int) []bool {
	out := make([]bool, n)
	var buf uint64
	var left int
	for i := range out {
		if left == 0 {
			buf = r.Uint64()
			left = 64
		}
		out[i] = buf&1 == 1
		buf >>= 1
		left--
	}
	return out
}

// Bool returns a fair coin flip.
func Bool(r *rand.Rand) bool {
	return r.Int63()&1 == 1
}
