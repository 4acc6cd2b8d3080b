package mis

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/radio"
)

// TestRunObserverWired verifies RunOpts.Observer reaches the engine: a run
// with an observer sees round and halt callbacks, and attaching one never
// changes the result.
func TestRunObserverWired(t *testing.T) {
	g := graph.GNP(64, 6.0/64, rand.New(rand.NewSource(2)))
	p := ParamsDefault(64, g.MaxDegree())
	base, err := Run("cd", g, p, RunOpts{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	obs := &haltCounter{}
	observed, err := Run("cd", g, p, RunOpts{Seed: 3, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if obs.rounds == 0 || obs.halts != g.N() {
		t.Errorf("observer saw %d rounds and %d halts, want >0 and %d", obs.rounds, obs.halts, g.N())
	}
	if !reflect.DeepEqual(base, observed) {
		t.Error("attaching an observer changed the result")
	}
}

type haltCounter struct {
	rounds, halts int
}

func (o *haltCounter) ObserveRound(*radio.RoundStats) { o.rounds++ }

func (o *haltCounter) ObserveHalt(int, int64, uint64, uint64) { o.halts++ }

// TestRegistryMetadata checks Describe/Infos/ParamKnobs completeness.
func TestRegistryMetadata(t *testing.T) {
	infos := Infos()
	names := Algorithms()
	if len(infos) != len(names) {
		t.Fatalf("Infos has %d entries, Algorithms %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("infos[%d] = %q, want %q", i, info.Name, names[i])
		}
		if info.Model == "" || info.Description == "" {
			t.Errorf("algorithm %q missing model or description", info.Name)
		}
		got, ok := Describe(info.Name)
		if !ok || got != info {
			t.Errorf("Describe(%q) = %+v, %v; want %+v, true", info.Name, got, ok, info)
		}
	}
	if _, ok := Describe("quantum"); ok {
		t.Error("Describe accepted unknown algorithm")
	}

	knobs := ParamKnobs()
	pt := reflect.TypeOf(Params{})
	if len(knobs) != pt.NumField() {
		t.Fatalf("ParamKnobs has %d entries, Params has %d fields", len(knobs), pt.NumField())
	}
	for i, k := range knobs {
		f := pt.Field(i)
		if k.Name != f.Name {
			t.Errorf("knob[%d].Name = %q, want Params field %q", i, k.Name, f.Name)
		}
		if k.Description == "" {
			t.Errorf("knob %q has no description", k.Name)
		}
	}
}

// TestRunUnknownAlgorithm checks the error lists the registered names.
func TestRunUnknownAlgorithm(t *testing.T) {
	g := graph.Complete(4)
	_, err := Run("quantum", g, ParamsDefault(4, 3), RunOpts{})
	if err == nil {
		t.Fatal("Run accepted unknown algorithm")
	}
	for _, name := range Algorithms() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q missing %q", err, name)
		}
	}
}
