// Command benchsuite regenerates the reproduction experiments E1–E15 (one
// per quantitative claim of the paper, plus the E14 fault-injection
// robustness sweeps — see DESIGN.md's per-experiment index) and prints
// their result tables. EXPERIMENTS.md records the expected shapes and a
// reference run's numbers.
//
// Usage:
//
//	benchsuite              # run everything at full scale
//	benchsuite -quick       # smoke-test scale
//	benchsuite -e E2,E5     # selected experiments
//	benchsuite -json out.json  # also write a machine-readable report ("-" = stdout)
//	benchsuite -timeout 5m  # bound the whole run; exits non-zero on expiry
//
// The -json report follows the stable experiments.SchemaVersion layout:
// every experiment's tables plus its metric summaries
// (count/mean/std/min/max/median/p90 per (series, x, metric) point), a
// host header (go version, GOMAXPROCS, CPU count), and a
// per-experiment perf section summarizing the trial wall-time histogram
// (timing only — metric points stay deterministic in seed and scale).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"radiomis/internal/experiments"
	"radiomis/internal/logx"
	"radiomis/internal/telemetry"
	"radiomis/internal/trace"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	var (
		only     = fs.String("e", "", "comma-separated experiment IDs (default: all)")
		quick    = fs.Bool("quick", false, "smoke-test scale")
		seed     = fs.Uint64("seed", 1, "suite seed")
		jsonPath = fs.String("json", "", "write a machine-readable report to this file (\"-\" = stdout)")
		timeout  = fs.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
		logLevel = fs.String("log-level", "info", "log level: debug, info, warn, error")
		logFmt   = fs.String("log-format", "text", "log format: text or json")
		traceOut = fs.String("trace", "", "write a Chrome trace of the suite's spans to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := logx.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	format, err := logx.ParseFormat(*logFmt)
	if err != nil {
		return err
	}
	log := logx.New(os.Stderr, level, format)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Tracing is opt-in and out-of-band: the report's metric points are
	// bit-identical with or without -trace.
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(0)
		ctx = trace.WithTracer(ctx, tracer)
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	defs := experiments.All()
	if *only != "" {
		defs = defs[:0]
		for _, id := range strings.Split(*only, ",") {
			def, err := experiments.Lookup(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			defs = append(defs, def)
		}
	}

	// When the JSON report goes to stdout, route the human-readable tables
	// to stderr so the JSON stays parseable.
	tablesOut := stdout
	if *jsonPath == "-" {
		tablesOut = os.Stderr
	}

	jr := experiments.NewJSONReport(cfg)
	var runErr error
	for _, def := range defs {
		// Fresh registry per experiment: the harness observes per-trial
		// wall time into it, and the report's perf section summarizes it.
		// Telemetry never affects the experiment's numbers — metric points
		// are deterministic in (seed, quick) with or without it.
		reg := telemetry.New()
		start := time.Now()
		ectx, sp := trace.Start(ctx, "benchsuite.experiment", trace.A("experiment", def.ID))
		log.DebugContext(ectx, "experiment starting", "experiment", def.ID)
		rep, err := def.Run(telemetry.WithRegistry(ectx, reg), cfg)
		sp.End()
		if err != nil {
			runErr = fmt.Errorf("%s: %w", def.ID, err)
			if errors.Is(err, context.DeadlineExceeded) {
				// The -timeout budget expired mid-suite: emit whatever
				// completed, flagged as partial, and exit non-zero.
				fmt.Fprintf(tablesOut, "benchsuite: timeout after %v during %s; report is partial (%d/%d experiments)\n",
					*timeout, def.ID, len(jr.Experiments), len(defs))
				runErr = fmt.Errorf("%s: timeout %v expired (partial report: %d/%d experiments): %w",
					def.ID, *timeout, len(jr.Experiments), len(defs), err)
			}
			break
		}
		elapsed := time.Since(start)
		log.Info("experiment done", "experiment", def.ID, "duration", elapsed.Round(time.Millisecond).String())
		jr.Add(rep, elapsed, experiments.PerfFromRegistry(reg))
		fmt.Fprintln(tablesOut, strings.Repeat("=", 78))
		fmt.Fprint(tablesOut, rep)
		fmt.Fprintf(tablesOut, "(%s in %v)\n\n", def.ID, elapsed.Round(time.Millisecond))
	}

	if *jsonPath != "" {
		if err := writeJSON(jr, *jsonPath, stdout); err != nil {
			return fmt.Errorf("writing json report: %w", err)
		}
	}
	if tracer != nil {
		if err := writeTrace(*traceOut, tracer); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		log.Info("trace written", "path", *traceOut, "spans", len(tracer.Spans()))
	}
	return runErr
}

// writeTrace dumps the tracer's spans as a Chrome trace-event file
// (loadable in chrome://tracing or ui.perfetto.dev).
func writeTrace(path string, tracer *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tracer.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(jr *experiments.JSONReport, path string, stdout io.Writer) error {
	if path == "-" {
		return jr.Write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := jr.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
