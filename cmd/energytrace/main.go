// Command energytrace renders the awake schedule of a small MIS run as an
// ASCII timeline — one row per node, one column per round — making the
// sleeping energy model visible: `T` transmit, `L` listen, `.` sleep,
// `*` the round the node halted. The energy complexity of a node is simply
// the number of non-dot cells in its row.
//
// Beyond the timeline, the observability flags expose the structured view
// of the same run:
//
//   - -phases prints the per-phase energy/collision breakdown (where each
//     algorithm phase spends its awake rounds) plus the reception-outcome
//     totals;
//   - -jsonl FILE streams every round and halt as JSON Lines;
//   - -chrome FILE writes a Chrome trace-event file for chrome://tracing
//     or https://ui.perfetto.dev.
//
// Usage:
//
//	energytrace -n 12 -graph cycle -algo cd
//	energytrace -n 16 -graph gnp -algo naive-cd   # compare: rows fill up
//	energytrace -n 24 -graph gnp -algo nocd -phases -width 0
//	energytrace -n 12 -graph cycle -algo cd -chrome trace.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"radiomis/internal/graph"
	"radiomis/internal/mis"
	"radiomis/internal/obs"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "energytrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("energytrace", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 12, "number of nodes (keep small; one column per round)")
		family     = fs.String("graph", "cycle", "graph family")
		algo       = fs.String("algo", "cd", "algorithm: cd|beep|naive-cd|nocd")
		seed       = fs.Uint64("seed", 1, "random seed")
		width      = fs.Int("width", 120, "maximum rounds to render (0 disables the timeline)")
		phases     = fs.Bool("phases", false, "print the per-phase energy and collision breakdown")
		jsonlPath  = fs.String("jsonl", "", "write a JSON Lines event stream to this file")
		chromePath = fs.String("chrome", "", "write a Chrome trace-event file to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fam, err := graph.ParseFamily(*family)
	if err != nil {
		return err
	}
	g := graph.Generate(fam, *n, rng.New(*seed))
	p := mis.ParamsDefault(g.N(), g.MaxDegree())

	program, model, unaryOnly, err := selectAlgo(*algo, p)
	if err != nil {
		return err
	}

	// Assemble the observer chain: the timeline, breakdowns and exporters
	// all attach as Observers.
	var observers radio.MultiObserver
	var tl *timeline
	if *width > 0 {
		tl = newTimeline(g.N(), *width)
		observers = append(observers, tl)
	}
	var breakdown *obs.PhaseBreakdown
	var counter *obs.Counter
	if *phases {
		breakdown = obs.NewPhaseBreakdown(g.N())
		counter = &obs.Counter{}
		observers = append(observers, breakdown, counter)
	}
	var jw *obs.JSONLWriter
	var jf *os.File
	if *jsonlPath != "" {
		if jf, err = os.Create(*jsonlPath); err != nil {
			return err
		}
		defer jf.Close() // error paths only; success closes below
		jw = obs.NewJSONLWriter(jf)
		observers = append(observers, jw)
	}
	var ct *obs.ChromeTracer
	var cf *os.File
	if *chromePath != "" {
		if cf, err = os.Create(*chromePath); err != nil {
			return err
		}
		defer cf.Close() // error paths only; success closes below
		ct = obs.NewChromeTracer(cf)
		observers = append(observers, ct)
	}

	cfg := radio.Config{Model: model, Seed: *seed, UnaryOnly: unaryOnly}
	if len(observers) > 0 {
		cfg.Observer = observers
	}
	rr, err := radio.Run(g, cfg, program)
	if err != nil {
		return err
	}
	if jw != nil {
		if err := jw.Flush(); err != nil {
			return fmt.Errorf("jsonl export: %w", err)
		}
		if err := jf.Close(); err != nil {
			return fmt.Errorf("jsonl export: %w", err)
		}
	}
	if ct != nil {
		if err := ct.Close(); err != nil {
			return fmt.Errorf("chrome export: %w", err)
		}
		if err := cf.Close(); err != nil {
			return fmt.Errorf("chrome export: %w", err)
		}
	}

	fmt.Fprintf(out, "%s  algo=%s model=%s seed=%d\n", g, *algo, model, *seed)
	if tl != nil {
		tl.render(out, rr)
	}
	fmt.Fprintf(out, "\nmax energy %d, avg %.1f, rounds %d\n",
		maxOf(rr.Energy), avg(rr.Energy), rr.Rounds)
	inSet := make([]bool, g.N())
	for v, o := range rr.Outputs {
		inSet[v] = mis.Status(o) == mis.StatusInMIS
	}
	if err := graph.CheckMIS(g, inSet); err != nil {
		fmt.Fprintf(out, "result: INVALID (%v)\n", err)
	} else {
		fmt.Fprintf(out, "result: valid MIS of size %d\n", graph.SetSize(inSet))
	}

	if *phases {
		renderPhases(out, breakdown, counter)
	}
	if *jsonlPath != "" {
		fmt.Fprintf(out, "\njsonl event stream written to %s\n", *jsonlPath)
	}
	if *chromePath != "" {
		fmt.Fprintf(out, "chrome trace written to %s (open in chrome://tracing)\n", *chromePath)
	}
	return nil
}

// selectAlgo maps an -algo value to the program to run, the collision
// model, and whether the engine must enforce unary transmissions. The
// beeping model only carries "beep"/"no beep" (§3.1), so it runs with
// UnaryOnly set: a program that tried to transmit a multi-bit payload
// would fail instead of silently exceeding the model.
func selectAlgo(algo string, p mis.Params) (radio.Program, radio.Model, bool, error) {
	switch algo {
	case "cd":
		return mis.CDProgram(p), radio.ModelCD, false, nil
	case "beep":
		return mis.CDProgram(p), radio.ModelBeep, true, nil
	case "naive-cd":
		return mis.NaiveCDProgram(p), radio.ModelCD, false, nil
	case "nocd":
		return mis.NoCDProgram(p), radio.ModelNoCD, false, nil
	}
	return nil, 0, false, fmt.Errorf("unknown algorithm %q (supported: cd, beep, naive-cd, nocd)", algo)
}

// timeline is an Observer that draws the awake schedule straight into
// width-bounded rows: T for a transmit, L for a listen, . for sleep. Its
// memory is n×width bytes however long the run is.
type timeline struct {
	rows  [][]byte
	width int
}

func newTimeline(n, width int) *timeline {
	rows := make([][]byte, n)
	for v := range rows {
		rows[v] = bytes.Repeat([]byte{'.'}, width)
	}
	return &timeline{rows: rows, width: width}
}

// ObserveRound implements radio.Observer.
func (t *timeline) ObserveRound(s *radio.RoundStats) {
	if s.Round >= uint64(t.width) {
		return
	}
	for _, tx := range s.Transmitters {
		t.rows[tx.ID][s.Round] = 'T'
	}
	for _, rx := range s.Listeners {
		t.rows[rx.ID][s.Round] = 'L'
	}
}

// ObserveHalt implements radio.Observer; halt marks come from
// Result.HaltRound at render time.
func (t *timeline) ObserveHalt(int, int64, uint64, uint64) {}

// render prints the first min(rr.Rounds, width) rounds of every row, with
// * marking the round a node halted in when it falls on a sleep cell.
func (t *timeline) render(out io.Writer, rr *radio.Result) {
	rounds := t.width
	if rr.Rounds < uint64(rounds) {
		rounds = int(rr.Rounds)
	}
	fmt.Fprintf(out, "T=transmit L=listen .=sleep *=halt   (%d of %d rounds shown)\n\n", rounds, rr.Rounds)
	for v, row := range t.rows {
		row = row[:rounds]
		if r := rr.HaltRound[v]; r < uint64(rounds) && row[r] == '.' {
			row[r] = '*'
		}
		status := mis.Status(rr.Outputs[v])
		fmt.Fprintf(out, "node %3d %-9s E=%-4d |%s|\n", v, status, rr.Energy[v], row)
	}
}

// renderPhases prints where the run's energy went, phase by phase, plus the
// physical reception outcomes the engine observed.
func renderPhases(out io.Writer, b *obs.PhaseBreakdown, c *obs.Counter) {
	var total uint64
	for _, p := range b.Phases() {
		total += p.TotalAwake()
	}
	fmt.Fprintf(out, "\nphase breakdown (awake rounds by phase label; %d total):\n", total)
	fmt.Fprintf(out, "%-22s %10s %7s %10s %10s %10s\n",
		"phase", "awake", "share", "transmits", "listens", "collisions")
	for _, p := range b.Phases() {
		name := p.Name
		if name == "" {
			name = "(unlabeled)"
		}
		share := 0.0
		if total > 0 {
			share = float64(p.TotalAwake()) / float64(total)
		}
		fmt.Fprintf(out, "%-22s %10d %6.1f%% %10d %10d %10d\n",
			name, p.TotalAwake(), 100*share, p.TotalTransmits(), p.TotalListens(), p.TotalCollisions())
	}
	fmt.Fprintf(out, "\nreception outcomes over %d active rounds: %d successes, %d collisions, %d silent listens\n",
		c.Rounds, c.Successes, c.Collisions, c.Silences)
}

func maxOf(xs []uint64) uint64 {
	var m uint64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func avg(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s uint64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
