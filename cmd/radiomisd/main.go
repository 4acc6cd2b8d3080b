// Command radiomisd serves the radio-network simulator as a service: an
// HTTP JSON API that queues simulation jobs (reproduction experiments or
// single-algorithm runs), executes them on a bounded worker pool, caches
// results, and streams per-job progress as JSON lines. See docs/api.md for
// the radiomis.server/v1 wire schema.
//
// Usage:
//
//	radiomisd                     # listen on :8347 with default pool sizes
//	radiomisd -addr :9000 -workers 8 -queue 64 -cache 256
//	radiomisd -pprof              # also mount /debug/pprof/ profiling endpoints
//	radiomisd -log-format json -log-level debug
//	radiomisd -trace=false        # disable distributed tracing
//	radiomisd -data-dir /var/lib/radiomisd   # durable WAL job store
//	radiomisd -version            # print build information and exit
//
// With -data-dir, every accepted job and state transition is appended to
// a write-ahead log under the directory; on restart the daemon replays
// the log, re-enqueuing jobs that were queued or running when it died
// (the engine is deterministic per seed, so they re-execute to the same
// results). Without the flag the daemon is purely in-memory, exactly as
// before.
//
// The daemon traces by default: every /v1 request runs under a root span
// (continuing an inbound W3C traceparent), jobs hang their span trees
// beneath it down to engine round slices, and GET /debug/traces serves
// the recent spans (?format=chrome or otlp for tool-ready exports).
// Tracing is out-of-band — simulation results are bit-identical with it
// on or off.
//
// The daemon drains gracefully on SIGINT/SIGTERM: in-flight jobs get
// -drain-timeout to finish, after which their simulations are aborted
// through context cancellation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"radiomis/internal/logx"
	"radiomis/internal/server"
	"radiomis/internal/store"
	"radiomis/internal/telemetry"
	"radiomis/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "radiomisd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("radiomisd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8347", "listen address")
		workers      = fs.Int("workers", runtime.NumCPU(), "concurrent job executors")
		queue        = fs.Int("queue", 32, "max queued jobs before 429 backpressure")
		cache        = fs.Int("cache", 128, "result-cache capacity (LRU entries)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
		pprofOn      = fs.Bool("pprof", false, "expose Go profiling endpoints under /debug/pprof/")
		traceOn      = fs.Bool("trace", true, "trace requests and jobs (see GET /debug/traces)")
		traceBuffer  = fs.Int("trace-buffer", trace.DefaultCapacity, "recent-span ring capacity")
		heartbeat    = fs.Duration("event-heartbeat", 15*time.Second, "keep-alive interval for idle event streams (negative disables)")
		dataDir      = fs.String("data-dir", "", "directory for the durable WAL job store (empty = in-memory only)")
		walSegBytes  = fs.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = default 8 MiB)")
		walSync      = fs.Bool("wal-sync", false, "fsync the WAL after every append (survives power loss, not just crashes)")
		logLevel     = fs.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat    = fs.String("log-format", "text", "log format: text or json")
		version      = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		bi := server.ReadBuildInfo()
		fmt.Printf("radiomisd %s", orUnknown(bi.Version))
		if bi.Revision != "" {
			rev := bi.Revision
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if bi.Modified {
				rev += "-dirty"
			}
			fmt.Printf(" (%s)", rev)
		}
		fmt.Printf(" %s\n", orUnknown(bi.GoVersion))
		return nil
	}

	level, err := logx.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	format, err := logx.ParseFormat(*logFormat)
	if err != nil {
		return err
	}
	log := logx.New(os.Stderr, level, format)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.New(*traceBuffer)
	}

	// One registry serves /metrics for every subsystem: the job manager
	// and the WAL store both register on it.
	reg := telemetry.New()

	var st *store.Log
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir, store.Options{
			SegmentBytes: *walSegBytes,
			Sync:         *walSync,
			Metrics:      reg,
		})
		if err != nil {
			return err
		}
		log.Info("wal open", "dataDir", *dataDir, "jobs", len(st.Jobs()), "tornTail", st.TornTail())
	}

	mgr := server.New(server.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cache,
		Tracer:         tracer,
		Logger:         log,
		EventHeartbeat: *heartbeat,
		Store:          st,
		Registry:       reg,
	})
	var hopts []server.HandlerOption
	if *pprofOn {
		hopts = append(hopts, server.WithPprof())
	}
	srv := &http.Server{Addr: *addr, Handler: server.NewHandler(mgr, hopts...)}

	errc := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", *addr, "workers", *workers, "queue", *queue,
			"cache", *cache, "tracing", tracer != nil)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	log.Info("shutting down", "drainTimeout", *drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Warn("http shutdown", "error", err)
	}
	if err := mgr.Shutdown(shutCtx); err != nil {
		log.Warn("aborted in-flight jobs", "error", err)
	}
	return <-errc
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}
