package radio

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// TestIntentSize pins the intent at 32 bytes: it sizes every node's batch
// buffers, and a 48-byte intent made dense runs measurably slower.
func TestIntentSize(t *testing.T) {
	if got := unsafe.Sizeof(intent{}); got != 32 {
		t.Fatalf("intent is %d bytes, want 32", got)
	}
}

// TestCalendarRingAndHeap drives the scheduler's round calendar directly:
// an event 64 rounds out goes to its ring bucket and one 65 rounds out to
// the heap; due sets come out in ascending id order, across bitset words;
// and a heap event drains into a round whose bucket already holds ring
// events, between their ids.
func TestCalendarRingAndHeap(t *testing.T) {
	s := &sched{words: 4}
	s.cal = make([]uint64, 64*s.words)
	due := func(r uint64, want ...int32) {
		t.Helper()
		if got := s.nextRound(); got != r {
			t.Fatalf("next round %d, want %d", got, r)
		}
		s.round = r
		s.beginRound(r)
		if !reflect.DeepEqual(s.cur, want) {
			t.Fatalf("round %d: due %v, want %v", r, s.cur, want)
		}
	}
	s.round = 10
	s.push(10+64, 10, 70)
	if len(s.heap) != 0 || s.occ != 1<<(74&63) {
		t.Fatalf("64 rounds out: heap %v, occupancy %#x; want the ring bucket", s.heap, s.occ)
	}
	s.push(10+65, 10, 71)
	if len(s.heap) != 1 {
		t.Fatalf("65 rounds out: heap %v, want the event", s.heap)
	}
	s.push(11, 10, 199)
	s.push(11, 10, 64)
	s.push(11, 10, 128)
	s.push(11, 10, 0)
	due(11, 0, 64, 128, 199)
	due(74, 70)
	due(75, 71)

	s.push(300, 75, 150) // heap
	s.push(139, 75, 100)
	due(139, 100)
	s.push(203, 139, 100)
	due(203, 100)
	s.push(250, 203, 100)
	due(250, 100)
	for _, id := range []int32{199, 64, 100, 151, 149, 255} {
		s.push(300, 250, id)
	}
	due(300, 64, 100, 149, 150, 151, 199, 255)
	b := int(300&63) * s.words
	if len(s.heap) != 0 || s.occ != 0 || slices.ContainsFunc(s.cal[b:b+s.words], func(w uint64) bool { return w != 0 }) {
		t.Fatalf("calendar not empty after its last round: heap %v, occupancy %#x", s.heap, s.occ)
	}
}

// calendarProgram sleeps for lengths around the calendar's 64-round
// horizon — one round, 63, 64, 65, 127 to 129 and 200 — between transmits
// and listens, so that events that went to the heap and events that went to
// a ring bucket fall due in the same rounds.
func calendarProgram(env *Env) int64 {
	gaps := [...]uint64{1, 63, 64, 65, 127, 128, 129, 200}
	env.Phase("calendar")
	var heard uint64
	for i := 0; i < 8; i++ {
		env.Sleep(gaps[env.Rand().Intn(len(gaps))])
		for k := env.Rand().Intn(3); k >= 0; k-- {
			if env.Rand().Intn(3) == 0 {
				env.Transmit(uint64(env.ID()) + 1)
			} else if r := env.Listen(); r.Kind == MessageKind {
				heard = heard*31 + r.Payload
			}
		}
	}
	return int64(heard)
}

// TestCalendarParity runs programs whose events straddle the calendar's
// horizon against the reference engine, fresh and pooled: sleeps of 64 and
// 65 rounds and beyond, crash restarts after delays of 1, 64, 65 and 300
// rounds, and wake rounds spread past 64, including 63, 64, 65 and 128.
func TestCalendarParity(t *testing.T) {
	g := graph.GNP(250, 5.0/250, rand.New(rand.NewSource(64)))
	t.Run("sleeps", func(t *testing.T) {
		runBoth(t, g, Config{Model: ModelNoCD, Seed: 6}, calendarProgram)
	})
	for _, delay := range []uint64{1, 64, 65, 300} {
		t.Run(fmt.Sprintf("restart=%d", delay), func(t *testing.T) {
			fp := faults.Profile{Crash: faults.Crash{Rate: 0.03, RestartAfter: delay, MaxRestarts: 3}}
			cfg := Config{Model: ModelCD, Seed: 7, Faults: fp}
			if res := referenceRun(g, cfg, decayProgram).res; res.Faults.Restarts == 0 {
				t.Fatal("no node restarted")
			}
			runBoth(t, g, cfg, decayProgram)
			runBoth(t, g, cfg, calendarProgram)
		})
	}
	t.Run("wakes", func(t *testing.T) {
		wakes := make([]uint64, g.N())
		r := rand.New(rand.NewSource(65))
		for i := range wakes {
			wakes[i] = uint64(r.Intn(400))
		}
		copy(wakes, []uint64{63, 64, 65, 128, 0, 1})
		wakes[g.N()-1] = 64
		for _, program := range []Program{decayProgram, calendarProgram, transmitRunProgram} {
			runBoth(t, g, Config{Model: ModelNoCD, Seed: 8, WakeRound: wakes}, program)
		}
	})
}
