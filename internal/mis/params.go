// Package mis implements the paper's distributed maximal-independent-set
// algorithms for radio networks, together with the baselines they are
// compared against. Each runs by its registry name through Run (one
// trial) or RunMany (a batch):
//
//   - "cd" — Algorithm 1: the energy-optimal CD-model algorithm
//     (O(log n) energy, O(log² n) rounds). Runs unchanged in the beeping
//     model ("beep").
//   - "nocd" — Algorithms 2+3: the no-CD algorithm with
//     O(log² n log log n) energy and O(log³ n log Δ) rounds, built from the
//     energy-efficient backoffs and the LowDegreeMIS subroutine.
//   - "lowdegree" — the round-improved Davies-style MIS of §4.2
//     (O(log² n log Δ) rounds and energy), used standalone as the
//     best-known-prior baseline and internally on the committed subgraph.
//   - "naive-cd" — straightforward Luby in the CD model (O(log² n)
//     energy): the baseline Algorithm 1 improves on.
//   - "naive-nocd" — Algorithm 1 simulated round-by-round with
//     traditional Decay backoff (O(log⁴ n) energy): the naive no-CD
//     baseline of §1.3.
package mis

import (
	"fmt"
	"math"
	"math/bits"
)

// Params carries the shared knowledge and tunable constants of the
// algorithms. The paper proves its bounds for specific constant choices
// (ParamsPaper); those are very conservative, so ParamsDefault provides
// empirically-validated smaller constants for simulation at practical n.
type Params struct {
	// N is the shared upper bound on the network size (≥ the actual number
	// of nodes). All logarithmic quantities derive from N, so
	// overestimating N only inflates energy and rounds — the guarantee the
	// paper makes for polynomial overestimates.
	N int
	// Delta is the shared upper bound on the maximum degree.
	Delta int

	// Beta scales the competition rank length: B = ⌈Beta·log₂ N⌉ bits.
	// The paper requires Beta ≥ 4 for its union bounds.
	Beta float64
	// C scales the number of Luby phases: L = ⌈C·log₂ N⌉.
	C float64
	// CPrime scales the backoff repetition count of the no-CD algorithm:
	// k = ⌈CPrime·log₂ N⌉.
	CPrime float64
	// Kappa scales the committed-subgraph degree estimate:
	// d̂ = ⌈Kappa·log₂ N⌉ (Corollary 13).
	Kappa float64

	// GhaffariPhases scales the number of phases of the LowDegreeMIS
	// subroutine: P = ⌈GhaffariPhases·log₂ N⌉.
	GhaffariPhases float64
	// ExchangeReps scales the per-phase Decay iteration count inside
	// LowDegreeMIS: kx = ⌈ExchangeReps·log₂ N⌉.
	ExchangeReps float64

	// EnergyCap, when nonzero, applies the paper's deterministic
	// energy-threshold rule to the no-CD algorithm: a node that has spent
	// more than EnergyCap awake rounds goes to sleep for the remainder and
	// decides arbitrarily (it reports out-MIS). This converts the
	// high-probability energy bound into an absolute one at the cost of an
	// extra 1/poly(n) failure probability.
	EnergyCap uint64

	// Ablate disables individual optimizations of Algorithm 2 for the
	// ablation experiments (E10). The zero value is the full algorithm.
	Ablate Ablations
}

// Ablations switches off the specific design choices of §5.1 so their
// individual energy contributions can be measured. Each toggle preserves
// correctness (the algorithm still computes an MIS w.h.p.) but worsens
// either energy or rounds, which is exactly what the ablation experiment
// quantifies.
type Ablations struct {
	// NoCommit disables the commit mechanism of §5.1.1: a node whose first
	// 0-bit was silent neither shrinks its receiver budget nor guarantees
	// itself a decision this phase, so eventual winners listen with the
	// full Δ budget and near-winners are not funneled into LowDegreeMIS.
	NoCommit bool
	// NoReceiverEarlySleep disables the Rec-EBackoff optimization of
	// §4.1: receivers listen their full budget even after hearing.
	NoReceiverEarlySleep bool
	// NoShallowCheck removes the end-of-phase shallow check of §5.1.2:
	// MIS-dominated nodes discover their MIS neighbor only through the
	// deep checks of phases they win or commit in.
	NoShallowCheck bool
	// DeepShallowCheck replaces the constant-probability shallow check
	// with the "seemingly necessary" full deep check of §5.1.2 for every
	// undecided node, every phase — the strawman whose energy cost the
	// shallow-check design avoids.
	DeepShallowCheck bool
}

// active reports whether any ablation is enabled.
func (a Ablations) active() bool {
	return a.NoCommit || a.NoReceiverEarlySleep || a.NoShallowCheck || a.DeepShallowCheck
}

// ParamsDefault returns practical constants for simulating a network of n
// nodes with maximum degree at most delta. They are tuned so that runs at
// feasible sizes succeed with high empirical probability while keeping
// simulations fast; the asymptotic shapes of the paper are unaffected.
func ParamsDefault(n, delta int) Params {
	return Params{
		N:              n,
		Delta:          delta,
		Beta:           3,
		C:              3,
		CPrime:         5,
		Kappa:          5,
		GhaffariPhases: 3,
		ExchangeReps:   5,
	}
}

// ParamsPaper returns the constants for which the paper proves its
// 1 − 1/poly(n) guarantees: β ≥ 4, C ≥ 4/log₂(64/63), κ ≥ 5 and C′ chosen
// so that Rec-EBackoff(C′ log n, Δ) fails with probability at most 1/n⁵
// (i.e. (7/8)^{C′ log₂ n} ≤ n⁻⁵, giving C′ = 5/log₂(8/7)). Runs with these
// constants are slow; they exist to demonstrate the faithful configuration.
func ParamsPaper(n, delta int) Params {
	p := ParamsDefault(n, delta)
	p.Beta = 4
	p.C = math.Ceil(4 / math.Log2(64.0/63.0)) // ≥ 176
	p.CPrime = math.Ceil(5 / math.Log2(8.0/7.0))
	p.Kappa = 5
	return p
}

// Validate reports an error for unusable parameters.
func (p Params) Validate() error {
	switch {
	case p.N < 1:
		return fmt.Errorf("mis: N = %d, want ≥ 1", p.N)
	case p.Delta < 0:
		return fmt.Errorf("mis: Delta = %d, want ≥ 0", p.Delta)
	case p.Beta <= 0 || p.C <= 0 || p.CPrime <= 0 || p.Kappa <= 0:
		return fmt.Errorf("mis: constants must be positive: %+v", p)
	case p.GhaffariPhases <= 0 || p.ExchangeReps <= 0:
		return fmt.Errorf("mis: LowDegreeMIS constants must be positive: %+v", p)
	case p.Ablate.NoShallowCheck && p.Ablate.DeepShallowCheck:
		return fmt.Errorf("mis: NoShallowCheck and DeepShallowCheck are mutually exclusive")
	default:
		return nil
	}
}

// Log2N returns ⌈log₂ N⌉, clamped to at least 1 — the unit all round and
// energy budgets are denominated in.
func (p Params) Log2N() int { return log2Ceil(p.N) }

// RankBits returns B = ⌈Beta·log₂ N⌉, the competition rank length.
func (p Params) RankBits() int { return scaled(p.Beta, p.Log2N()) }

// LubyPhases returns L = ⌈C·log₂ N⌉, the number of Luby phases.
func (p Params) LubyPhases() int { return scaled(p.C, p.Log2N()) }

// BackoffReps returns k = ⌈CPrime·log₂ N⌉, the repetition count of the
// no-CD backoffs.
func (p Params) BackoffReps() int { return scaled(p.CPrime, p.Log2N()) }

// CommitDegree returns d̂ = min(Δ, ⌈Kappa·log₂ N⌉), the degree estimate
// adopted by committing nodes — the κ log n bound of Corollary 13, which
// can never exceed the global degree bound Δ (Algorithm 3 line 12 takes
// exactly this minimum).
func (p Params) CommitDegree() int {
	d := scaled(p.Kappa, p.Log2N())
	if p.Delta > 0 && p.Delta < d {
		return p.Delta
	}
	return d
}

// shallowReps returns the iteration count of the end-of-phase shallow
// check: 1 by design (§5.1.2), or the full deep-check count under the
// DeepShallowCheck ablation.
func (p Params) shallowReps() int {
	if p.Ablate.DeepShallowCheck {
		return p.BackoffReps()
	}
	return 1
}

// ghaffariPhaseCount returns P = ⌈GhaffariPhases·log₂ N⌉.
func (p Params) ghaffariPhaseCount() int { return scaled(p.GhaffariPhases, p.Log2N()) }

// exchangeReps returns kx = ⌈ExchangeReps·log₂ N⌉.
func (p Params) exchangeReps() int { return scaled(p.ExchangeReps, p.Log2N()) }

// log2Ceil returns max(1, ⌈log₂ n⌉).
func log2Ceil(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// scaled returns ⌈c·x⌉ clamped to at least 1.
func scaled(c float64, x int) int {
	v := int(math.Ceil(c * float64(x)))
	if v < 1 {
		return 1
	}
	return v
}
