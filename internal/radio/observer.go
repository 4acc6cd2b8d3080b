package radio

// This file defines the engine's one observability hook: per-round
// reception outcomes (successes, collisions, silent listens) and
// per-action phase attribution. Per-node halt rounds need no observer;
// every run reports them in Result.HaltRound.

// NodeTx describes one transmitting node within a round.
type NodeTx struct {
	// ID is the transmitter's node index.
	ID int
	// Phase is the algorithm-phase label the node had set via Env.Phase
	// when it transmitted ("" when unset).
	Phase string
	// Payload is the transmitted word.
	Payload uint64
}

// NodeRx describes one listening node within a round, including the
// reception outcome.
type NodeRx struct {
	// ID is the listener's node index.
	ID int
	// Phase is the algorithm-phase label the node had set via Env.Phase
	// when it listened ("" when unset).
	Phase string
	// TxNeighbors is the number of neighbors that transmitted this round —
	// the physical ground truth at this listener, independent of the
	// collision model: 0 is silence, 1 a successful reception, ≥ 2 a
	// collision (even when the model masks it, as no-CD does).
	TxNeighbors int
	// Delivered is the number of those transmissions that survived the
	// fault layer's loss model at this listener. Equal to TxNeighbors on
	// clean runs.
	Delivered int
	// Outcome is what the listener perceived under the configured model
	// (e.g. a collision is perceived as Silence in the no-CD model).
	Outcome Kind
}

// RoundStats describes one active round: who was awake, in which phase,
// and what every listener physically experienced. The engine computes it
// from marks it already maintains, so observation adds no asymptotic cost.
//
// The invariant Successes + Collisions + Silences == len(Listeners) holds
// in every round under every collision model. On faulty runs the
// classification reflects the perturbed channel: counts are computed from
// delivered transmissions plus any phantom interference from noise or
// jamming, which is exactly what the listeners perceived.
type RoundStats struct {
	// Round is the simulated round number.
	Round uint64
	// Transmitters holds the transmitting nodes, in ascending ID order.
	Transmitters []NodeTx
	// Listeners holds the listening nodes, in ascending ID order.
	Listeners []NodeRx
	// Successes counts listeners that perceived exactly one transmitter.
	Successes int
	// Collisions counts listeners that perceived two or more transmitters.
	Collisions int
	// Silences counts listeners that perceived no transmitter.
	Silences int
	// Jammed reports whether the fault layer's adversary jammed this round.
	Jammed bool
	// Lost counts transmitter→listener deliveries dropped by the fault
	// layer's loss model this round (0 on clean runs).
	Lost int
	// Crashed holds the IDs of nodes that crashed this round, in ascending
	// order (empty on clean runs).
	Crashed []int
	// Noised counts listeners hit by spurious-collision noise this round.
	Noised int
}

// Observer receives structured simulation events. Methods are called from
// the coordinator's single goroutine and must be fast: they run on its
// critical path. The RoundStats value and its slices are only valid during
// the call (the engine reuses the buffers between rounds).
type Observer interface {
	// ObserveRound is called after each round with at least one awake
	// node, once receptions have been resolved.
	ObserveRound(s *RoundStats)
	// ObserveHalt is called when a node's program returns. energy is the
	// node's final awake-round count and round the round it halted.
	ObserveHalt(id int, output int64, energy uint64, round uint64)
}

// MultiObserver fans events out to several observers.
type MultiObserver []Observer

var _ Observer = (MultiObserver)(nil)

// ObserveRound implements Observer.
func (m MultiObserver) ObserveRound(s *RoundStats) {
	for _, o := range m {
		o.ObserveRound(s)
	}
}

// ObserveHalt implements Observer.
func (m MultiObserver) ObserveHalt(id int, output int64, energy uint64, round uint64) {
	for _, o := range m {
		o.ObserveHalt(id, output, energy, round)
	}
}
