package radio

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// TestListenForEdges pins ListenFor's contract on every engine: a zero
// length listens to nothing, a message in a run's first round ends it
// after 1 round, a run that hears nothing lasts its full length, a later
// message ends it in that round, and Env.Round and Energy advance by the
// rounds listened. Node 1 transmits in rounds 3 and 14; node 0 listens.
// Every engine runs it: the reference, the scheduler fresh and pooled, and
// the scheduler under the select discipline.
func TestListenForEdges(t *testing.T) {
	type call struct {
		m             uint64
		kind          Kind
		payload, n    uint64
		round, energy uint64
	}
	want := []call{
		{m: 0, kind: Silence, n: 0, round: 0, energy: 0},
		{m: 3, kind: Silence, n: 3, round: 3, energy: 3},
		{m: 5, kind: MessageKind, payload: 7, n: 1, round: 4, energy: 4},
		{m: 100, kind: MessageKind, payload: 9, n: 11, round: 15, energy: 15},
		{m: 2, kind: Silence, n: 2, round: 17, energy: 17},
	}
	var got []call
	program := func(env *Env) int64 {
		if env.ID() == 1 {
			env.Sleep(3)
			env.Transmit(7)
			env.Sleep(10)
			env.Transmit(9)
			return 0
		}
		for _, w := range want {
			r, n := env.ListenFor(w.m)
			got = append(got, call{w.m, r.Kind, r.Payload, n, env.Round(), env.Energy()})
		}
		return 0
	}
	pool := NewPool()
	for _, model := range []Model{ModelCD, ModelNoCD} {
		for _, engine := range []string{"reference", "sched", "pooled", "select"} {
			cfg := Config{Model: model, Seed: 1}
			run := Run
			switch engine {
			case "reference":
				run = runReference
			case "pooled":
				cfg.Ctx = WithPool(context.Background(), pool)
			case "select": // a crash rate that never fires
				cfg.Faults = faults.Profile{Crash: faults.Crash{Rate: 1e-300}}
			}
			got = got[:0]
			if _, err := run(graph.Complete(2), cfg, program); err != nil {
				t.Fatalf("%v/%s: %v", model, engine, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%v/%s: ListenFor calls\n got: %+v\nwant: %+v", model, engine, got, want)
			}
		}
	}
}

// listenFuzzProfiles are the fault profiles FuzzListenForParity picks from.
var listenFuzzProfiles = []faults.Profile{
	{},
	{Loss: 0.3},
	{Noise: 0.2},
	{Jammer: faults.Jammer{Budget: 5, Prob: 0.5}},
	{Crash: faults.Crash{Rate: 0.02}},
	{Crash: faults.Crash{Rate: 0.05, RestartAfter: 2, MaxRestarts: 3}},
	{Loss: 0.1, Noise: 0.1, Crash: faults.Crash{Rate: 0.02, RestartAfter: 1}},
	{WakeSpread: 9},
}

// scriptProgram decodes script into per-node action lists: node v starts
// at byte 5v (wrapping) and runs up to 16 actions. A byte's low three bits
// pick the action and its high five bits (a, 0–31) its operand:
//
//	0 Transmit(a + id)      4 ListenFor(8a² + 1)
//	1 Sleep(a)              5 ListenFor(2⁶⁴ − 1 − a)
//	2 Listen()              6 if the last listen heard: Transmit(payload + 1)
//	3 ListenFor(a)          7 if the last listen got a message: skip a%4 actions
//
// The output folds every reception and run length and the final Round and
// Energy, as listenRunProgram's does.
func scriptProgram(script []byte) Program {
	return func(env *Env) int64 {
		acc := uint64(env.ID())
		if len(script) == 0 {
			return int64(acc)
		}
		mix := func(v uint64) { acc = acc*0x9e3779b97f4a7c15 + v + 1 }
		last := Reception{Kind: Silence}
		pos := 5 * env.ID()
		for step := 0; step < 16; step++ {
			b := script[pos%len(script)]
			pos++
			a := uint64(b >> 3)
			var got uint64
			switch b & 7 {
			case 0:
				env.Transmit(a + uint64(env.ID()))
				continue
			case 1:
				env.Sleep(a)
				continue
			case 2:
				last, got = env.Listen(), 1
			case 3:
				last, got = env.ListenFor(a)
			case 4:
				last, got = env.ListenFor(8*a*a + 1)
			case 5:
				last, got = env.ListenFor(^uint64(0) - a)
			case 6:
				if last.Heard() {
					env.Transmit(last.Payload + 1)
				}
				continue
			case 7:
				if last.Kind == MessageKind {
					pos += int(a % 4)
				}
				continue
			}
			mix(uint64(last.Kind)<<56 ^ last.Payload)
			mix(got)
		}
		mix(env.Round())
		mix(env.Energy())
		return int64(acc)
	}
}

// FuzzListenForParity differentially fuzzes listen runs: per-node action
// scripts (see scriptProgram) on a small random graph, under a fuzzed model
// and fault profile and a 512-round cap that the longest runs reach, must
// give the reference engine's Result, error and observer stream on the
// scheduler, fresh and pooled.
func FuzzListenForParity(f *testing.F) {
	f.Add(uint8(12), uint8(60), uint8(0), uint8(0), []byte{0x1b, 0x02, 0x08, 0x53, 0x06, 0xf4, 0x17})
	f.Add(uint8(70), uint8(20), uint8(1), uint8(0), []byte{0x03, 0x0b, 0x00, 0x4c, 0x07, 0x02, 0x31})
	f.Add(uint8(90), uint8(30), uint8(1), uint8(5), []byte{0x8b, 0x00, 0x0e, 0x2a, 0x0d, 0x06, 0x01, 0x03})
	f.Add(uint8(33), uint8(90), uint8(2), uint8(6), []byte{0x13, 0x0a, 0x02, 0x00, 0x05})
	f.Add(uint8(5), uint8(255), uint8(0), uint8(4), []byte{0x00, 0x03, 0x1b, 0xff, 0x06})
	f.Add(uint8(80), uint8(40), uint8(1), uint8(7), []byte{0x9b, 0x24, 0x00, 0x02, 0x63})
	f.Fuzz(func(t *testing.T, nodes, density, model, profile uint8, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		n := 1 + int(nodes)%96
		g := graph.GNP(n, float64(density)/1024, rand.New(rand.NewSource(int64(nodes)<<8|int64(density))))
		cfg := Config{
			Model:     Model(1 + int(model)%3),
			Seed:      uint64(model)<<8 | uint64(profile),
			MaxRounds: 512,
			Faults:    listenFuzzProfiles[int(profile)%len(listenFuzzProfiles)],
		}
		program := scriptProgram(script)
		want := referenceRun(g, cfg, program)
		want.match(t, "fresh", g, cfg, program)
		cfg.Ctx = WithPool(context.Background(), NewPool())
		want.match(t, "pooled", g, cfg, program)
	})
}
