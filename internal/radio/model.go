// Package radio implements the synchronous radio network model of the
// paper: time is divided into discrete rounds; in each round a node is
// either awake (transmitting or listening, but not both) or sleeping; only
// awake rounds count toward the node's energy complexity, while all rounds
// count toward the round complexity.
//
// Three collision-handling variants are supported:
//
//   - CD (collision detection): a listener distinguishes silence (no
//     transmitting neighbor), a message (exactly one), and a collision
//     (two or more).
//   - no-CD: a listener cannot distinguish silence from collision — two or
//     more transmitting neighbors sound exactly like silence.
//   - Beeping: transmissions carry no payload; a listener hears a beep iff
//     at least one neighbor beeps. There is no sender-side collision
//     detection: a beeping node hears nothing.
//
// Node algorithms are ordinary Go functions (Program) executed one
// goroutine per node against an Env that provides the round primitives
// (Transmit, TransmitRun, Listen, ListenFor, Sleep). A discrete-event
// coordinator advances time, applies the collision rule of the configured
// model, and charges one unit of energy per awake round, so simulation cost
// is proportional to the sum of awake node-rounds rather than n × rounds.
package radio

import "fmt"

// Model selects the collision-handling variant of the radio network.
type Model int

// Supported radio models.
const (
	// ModelCD is the collision-detection radio model.
	ModelCD Model = iota + 1
	// ModelNoCD is the radio model without collision detection.
	ModelNoCD
	// ModelBeep is the beeping model (unary communication, receiver-side
	// OR, no sender-side collision detection).
	ModelBeep
)

// String returns the model's canonical name.
func (m Model) String() string {
	switch m {
	case ModelCD:
		return "cd"
	case ModelNoCD:
		return "no-cd"
	case ModelBeep:
		return "beep"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Kind classifies what a listening node perceived in a round.
type Kind int

// Reception kinds.
const (
	// Silence: no transmission was perceived. In the no-CD model this is
	// also what a collision sounds like.
	Silence Kind = iota + 1
	// MessageKind: exactly one neighbor transmitted; the payload was
	// received intact.
	MessageKind
	// CollisionKind: two or more neighbors transmitted (CD model only).
	CollisionKind
	// BeepKind: at least one neighbor beeped (beeping model only).
	BeepKind
)

// String returns the kind's canonical name.
func (k Kind) String() string {
	switch k {
	case Silence:
		return "silence"
	case MessageKind:
		return "message"
	case CollisionKind:
		return "collision"
	case BeepKind:
		return "beep"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Reception is the outcome of a Listen call.
type Reception struct {
	// Kind classifies the perception under the configured model.
	Kind Kind
	// Payload is the received message content; valid only when Kind is
	// MessageKind. The RADIO-CONGEST bound (O(log n) bits) is respected by
	// construction: payloads are single machine words.
	Payload uint64
}

// Heard reports whether the listener perceived anything other than
// silence — the "heard 1 or collision" predicate of Algorithm 1, which is
// also the correct predicate in the beeping model ("heard a beep").
func (r Reception) Heard() bool { return r.Kind != Silence }

// perceive maps the number of transmitting neighbors (and the payload of
// the unique transmitter, when count == 1) to a Reception under the model.
func perceive(m Model, count int, payload uint64) Reception {
	switch {
	case count == 0:
		return Reception{Kind: Silence}
	case m == ModelBeep:
		return Reception{Kind: BeepKind}
	case count == 1:
		return Reception{Kind: MessageKind, Payload: payload}
	case m == ModelCD:
		return Reception{Kind: CollisionKind}
	default: // no-CD: collision is indistinguishable from silence
		return Reception{Kind: Silence}
	}
}
