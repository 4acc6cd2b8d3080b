// Command radiobench is the repository's end-to-end benchmark. It drives
// radiomisd in-process — requests go through server.NewHandler's ServeHTTP
// with no sockets, and a job's completion is awaited on its Done channel —
// with one closed-loop client per workload, and prints one JSON result as
// the last line of standard output.
//
// With --trace 0 it measures end-to-end metrics (throughput, latency,
// set-up time, peak memory). With --trace 1 it replays the same kind of
// requests under benchmark-side spans, decomposes each one into the public
// calls of the layers below the handler, and reports per-layer metrics and
// a Chrome trace. Every run checks the program's outputs; a failed check
// prints correct=false and exits with status 1.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash radiobench/run.sh --workload cd-grid --seed 1 --seconds 30 --trace 0
//
// README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("radiobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every request's inputs derive from it")
	seconds := fs.Float64("seconds", 30, "length of the measured loop in seconds")
	traceMode := fs.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	outDir := fs.String("out", filepath.Join(".bench_build", "radiobench"), "directory the traced run writes its Chrome trace to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "radiobench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "radiobench: --seconds = %v, want > 0\n", *seconds)
		return 2
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintf(stderr, "radiobench: --trace = %d, want 0 or 1\n", *traceMode)
		return 2
	}
	// Every workload's operations run on one goroutine, where GOMAXPROCS=1
	// gives a steadier tail than nproc; README.md has the measurements.
	runtime.GOMAXPROCS(1)
	dur := time.Duration(*seconds * float64(time.Second))

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	printHost(out, w, *seed, *seconds, *traceMode)

	var (
		res *result
		err error
	)
	if *traceMode == 0 {
		res, err = runUntraced(out, w, *seed, dur)
	} else {
		res, err = runTraced(out, w, *seed, dur, *outDir)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "radiobench: %s: %v\n", w.name, err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "radiobench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// printHost writes the host header: what ran, where, and with which seed.
func printHost(w io.Writer, wl *workload, seed uint64, seconds float64, traceMode int) {
	h := struct {
		Workload   string  `json:"workload"`
		Seed       uint64  `json:"seed"`
		Seconds    float64 `json:"seconds"`
		Trace      int     `json:"trace"`
		GoVersion  string  `json:"goVersion"`
		GOOS       string  `json:"goos"`
		GOARCH     string  `json:"goarch"`
		CPU        string  `json:"cpu"`
		NumCPU     int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
	}{wl.name, seed, seconds, traceMode, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0)}
	b, _ := json.Marshal(h) // plain strings and numbers cannot fail to marshal
	fmt.Fprintf(w, "host %s\n", b)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vmHWM returns the process's peak resident set size (VmHWM) in MiB.
func vmHWM() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// resetHWM resets VmHWM to the current resident set size. Where the
// kernel refuses, VmHWM stays the process peak, which rssWindows allows for.
func resetHWM() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssWindows records the peak resident set of each window of the timed
// loop: VmHWM is read and reset at every window boundary. Their median is
// the run's peak_rss_mb, so neither set-up nor a one-off spike sets it.
// Where the kernel refuses the reset, every window reads the process peak.
type rssWindows struct {
	peaks []float64
	err   error
}

func (r *rssWindows) sample() {
	v, err := vmHWM()
	if err != nil {
		r.err = err
		return
	}
	r.peaks = append(r.peaks, v)
	resetHWM()
}

// load is the process's CPU time and the machine's CPU-time counters from
// /proc/stat, to tell a slow program from a busy host.
type load struct {
	cpu          time.Duration
	steal, total uint64
	stealShare   float64
}

func readLoad() load {
	var l load
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		l.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return l
	}
	// The first line sums every CPU: "cpu user nice system idle iowait irq
	// softirq steal ...", in clock ticks.
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseUint(f, 10, 64)
		if i == 0 || err != nil {
			continue
		}
		l.total += v
		if i == 8 {
			l.steal = v
		}
	}
	return l
}

func (l load) since(before load) load {
	d := load{cpu: l.cpu - before.cpu, steal: l.steal - before.steal, total: l.total - before.total}
	if d.total > 0 {
		d.stealShare = float64(d.steal) / float64(d.total)
	}
	return d
}
