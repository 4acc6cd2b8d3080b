package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"radiomis/internal/mis"
	"radiomis/internal/radio"
)

// TestRunTimeline compares the rendered timeline byte for byte against
// golden files: a CD run whose rows end in * halt marks, and a no-CD run
// truncated at the -width bound.
func TestRunTimeline(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"cd_cycle12.golden", []string{"-n", "12", "-graph", "cycle", "-algo", "cd", "-width", "120"}},
		{"nocd_cycle6.golden", []string{"-n", "6", "-graph", "cycle", "-algo", "nocd", "-width", "40"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatal(err)
		}
		if got := out.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("energytrace %s: output differs from testdata/%s\n got:\n%s\nwant:\n%s",
				strings.Join(tc.args, " "), tc.golden, got, want)
		}
	}
}

func TestRunNaive(t *testing.T) {
	if err := run([]string{"-n", "8", "-graph", "star", "-algo", "naive-cd"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-algo", "bogus"}, io.Discard); err == nil {
		t.Error("unsupported algo accepted")
	}
	if err := run([]string{"-graph", "bogus"}, io.Discard); err == nil {
		t.Error("unknown graph accepted")
	}
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestSelectAlgoBeepIsUnaryOnly pins the §3.1 contract: the beeping model
// carries only "beep"/"no beep", so -algo beep must run with the engine's
// unary-transmission enforcement on, and no other algo may.
func TestSelectAlgoBeepIsUnaryOnly(t *testing.T) {
	p := mis.ParamsDefault(8, 2)
	for _, tc := range []struct {
		algo      string
		model     radio.Model
		unaryOnly bool
	}{
		{"cd", radio.ModelCD, false},
		{"beep", radio.ModelBeep, true},
		{"naive-cd", radio.ModelCD, false},
		{"nocd", radio.ModelNoCD, false},
	} {
		prog, model, unaryOnly, err := selectAlgo(tc.algo, p)
		if err != nil {
			t.Fatalf("selectAlgo(%q): %v", tc.algo, err)
		}
		if prog == nil {
			t.Errorf("selectAlgo(%q): nil program", tc.algo)
		}
		if model != tc.model {
			t.Errorf("selectAlgo(%q): model = %v, want %v", tc.algo, model, tc.model)
		}
		if unaryOnly != tc.unaryOnly {
			t.Errorf("selectAlgo(%q): unaryOnly = %v, want %v", tc.algo, unaryOnly, tc.unaryOnly)
		}
	}
	if _, _, _, err := selectAlgo("bogus", p); err == nil {
		t.Error("selectAlgo accepted unknown algorithm")
	}
}

// TestRunBeep runs the beeping timeline end to end: with UnaryOnly set the
// run must still complete (Algorithm 1 is unary by construction) and
// report the beeping model.
func TestRunBeep(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "8", "-graph", "cycle", "-algo", "beep"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "model=beep") {
		t.Errorf("output does not mention the beeping model:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "valid MIS") {
		t.Errorf("beep run did not produce a valid MIS:\n%s", out.String())
	}
}

// TestRunPhases checks the -phases breakdown: the CD algorithm's labels
// must appear with a 100% share attributed to named phases.
func TestRunPhases(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "12", "-graph", "gnp", "-algo", "cd", "-phases", "-width", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"phase breakdown", "competition", "check", "reception outcomes"} {
		if !strings.Contains(s, want) {
			t.Errorf("phases output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "(unlabeled)") {
		t.Errorf("CD run attributed energy to an unlabeled phase:\n%s", s)
	}
}

// TestRunNoCDPhases smoke-tests the no-CD algorithm path with the phase
// breakdown on.
func TestRunNoCDPhases(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "12", "-graph", "cycle", "-algo", "nocd", "-phases", "-width", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "competition") {
		t.Errorf("no-cd phases output missing competition phase:\n%s", out.String())
	}
}

// TestRunExports checks that -jsonl and -chrome write well-formed files.
func TestRunExports(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "events.jsonl")
	chrome := filepath.Join(dir, "trace.json")
	err := run([]string{"-n", "8", "-graph", "cycle", "-algo", "cd",
		"-jsonl", jsonl, "-chrome", chrome, "-width", "0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("jsonl line %d invalid: %v", lines+1, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("jsonl export is empty")
	}

	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if len(events) == 0 {
		t.Error("chrome trace is empty")
	}
}

func TestHelpers(t *testing.T) {
	if maxOf([]uint64{1, 5, 3}) != 5 {
		t.Error("maxOf wrong")
	}
	if maxOf(nil) != 0 {
		t.Error("maxOf(nil) wrong")
	}
	if avg([]uint64{2, 4}) != 3 {
		t.Error("avg wrong")
	}
	if avg(nil) != 0 {
		t.Error("avg(nil) wrong")
	}
}
