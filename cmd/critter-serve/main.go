// Command critter-serve exposes the autotuning harness as a long-running
// HTTP service: tuning runs become schedulable jobs on a bounded queue,
// progress streams over server-sent events, identical submissions coalesce
// onto one execution, and every finished job's learned kernel profile
// accumulates in a store that warm-starts later jobs on the same workload
// — the service form of critter-tune's -profile-in/-profile-out loop.
// With -store the history and profiles are durable: finished jobs,
// their result envelopes, and the merged profiles survive restarts.
//
// Usage:
//
//	critter-serve [-addr 127.0.0.1:8080] [-runners 1] [-queue 16]
//	              [-workers 0] [-store DIR]
//	critter-serve -mode=worker -join=http://host:8080 [-name NAME] [-poll 500ms]
//
// The default mode serves the JSON API; -mode=worker instead joins an
// existing coordinator as a remote executor: it registers over the JSON
// API, leases queued jobs, runs them through the identical execution path
// (so results are byte-for-byte what the coordinator would have produced),
// and streams sweep events back as lease heartbeats. A worker that dies
// mid-job costs nothing but time: the coordinator requeues the job when
// the lease expires.
//
// API (JSON; see the README's Service section for the full table):
//
//	POST   /v1/jobs                 {"workload":"candmc","scale":"quick","eps":[0.125]}
//	                                (optional "strategy": exhaustive, random:N,
//	                                halving[:ETA], or surrogate:N[:BATCH])
//	GET    /v1/jobs                 all jobs
//	GET    /v1/jobs/{id}            job status
//	DELETE /v1/jobs/{id}            cancel
//	GET    /v1/jobs/{id}/events     progress (SSE)
//	GET    /v1/jobs/{id}/result     result envelope (schemaVersion 3)
//	GET    /v1/workloads            registered workload catalog
//	GET    /v1/profiles/{workload}  accumulated warm-start profile
//	POST   /v1/workers (+lease/events/result routes)  worker protocol
//
// With -addr ending in :0 the kernel picks a free port; the chosen
// address is printed as "listening on http://..." so scripts (like the CI
// smoke job) can scrape it. Shutdown is graceful: SIGINT/SIGTERM stops
// accepting requests, lets in-flight jobs finish within -grace, then
// cancels whatever is left.
//
// Observability: GET /v1/metrics (JSON) and GET /metrics (Prometheus
// text) expose the scheduler's instrument set, GET /v1/jobs/{id}/trace a
// locally executed job's span events, and -debug-addr starts a separate
// net/http/pprof listener (both modes — profiling a worker works the same
// way). The pprof listener is opt-in and on its own address so profiling
// endpoints never share a port with the public API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"critter/internal/service"
	"critter/internal/sim"
	"critter/internal/store"
	_ "critter/internal/workload" // the default registry's built-ins
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	runners := flag.Int("runners", 1, "concurrently executing jobs (<0 = none: jobs run only on joined workers)")
	queue := flag.Int("queue", 16, "bounded pending-job queue size")
	workers := flag.Int("workers", 0, "per-job concurrent sweep workers (0 = GOMAXPROCS)")
	history := flag.Int("history", 256, "finished jobs retained for status/result lookups (oldest evicted beyond this; <0 = unlimited)")
	storeDir := flag.String("store", "", "durable store directory for jobs + profiles (empty = in-memory only)")
	lease := flag.Duration("lease", 10*time.Second, "worker lease TTL before jobs are requeued")
	grace := flag.Duration("grace", 30*time.Second, "graceful-shutdown window for in-flight jobs")
	mode := flag.String("mode", "serve", `"serve" (coordinator) or "worker" (join a coordinator)`)
	join := flag.String("join", "", "coordinator base URL to join in worker mode, e.g. http://host:8080")
	name := flag.String("name", "", "worker name shown in GET /v1/workers (worker mode)")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle lease-poll interval (worker mode)")
	traceEvents := flag.Int("trace-events", 4096, "per-job span-trace ring size served at /v1/jobs/{id}/trace (<0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off; both modes)")
	flag.Parse()

	if *debugAddr != "" {
		if err := startDebug(*debugAddr); err != nil {
			fmt.Fprintf(os.Stderr, "critter-serve: debug listener: %v\n", err)
			os.Exit(1)
		}
	}

	switch *mode {
	case "worker":
		os.Exit(runWorker(*join, *name, *workers, *poll))
	case "serve":
	default:
		fmt.Fprintf(os.Stderr, "critter-serve: unknown -mode %q (want serve or worker)\n", *mode)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "critter-serve: ", log.LstdFlags)
	cfg := service.Config{
		Machine:     sim.DefaultMachine(),
		QueueSize:   *queue,
		Runners:     *runners,
		Workers:     *workers,
		MaxHistory:  *history,
		TraceEvents: *traceEvents,
		LeaseTTL:    *lease,
		Logf:        logger.Printf,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "critter-serve: open store: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		cfg.Durable = st
		fmt.Printf("critter-serve: durable store at %s (%d records)\n", st.Dir(), st.Len())
	}

	sched := service.New(cfg)
	httpSrv := &http.Server{Handler: service.NewServer(sched)}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "critter-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("critter-serve: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	select {
	case err := <-served:
		// Serve only returns on listener failure here; shutdown goes
		// through the signal path below.
		fmt.Fprintf(os.Stderr, "critter-serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Println("critter-serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "critter-serve: http shutdown: %v\n", err)
	}
	if err := sched.Close(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "critter-serve: scheduler shutdown: %v\n", err)
	}
}

// startDebug serves the pprof handlers on their own listener. An explicit
// mux, not http.DefaultServeMux: importing net/http/pprof registers its
// handlers globally, and the public API server must never inherit them.
func startDebug(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("critter-serve: pprof on http://%s/debug/pprof/\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "critter-serve: debug listener: %v\n", err)
		}
	}()
	return nil
}

// runWorker joins a coordinator and serves leases until SIGINT/SIGTERM.
func runWorker(join, name string, workers int, poll time.Duration) int {
	if join == "" {
		fmt.Fprintln(os.Stderr, "critter-serve: worker mode needs -join=<coordinator url>")
		return 2
	}
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logger := log.New(os.Stderr, "critter-worker: ", log.LstdFlags)
	w, err := service.NewWorker(service.WorkerOptions{
		Base:    join,
		Name:    name,
		Machine: sim.DefaultMachine(),
		Workers: workers,
		Poll:    poll,
		Logf:    logger.Printf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "critter-serve: %v\n", err)
		return 1
	}
	fmt.Printf("critter-serve: worker %q joining %s\n", name, join)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "critter-serve: worker: %v\n", err)
		return 1
	}
	fmt.Printf("critter-serve: worker shut down after %d completed jobs\n", w.Completed())
	return 0
}
