// Command critter-serve exposes the autotuning harness as a long-running
// HTTP service: tuning runs become schedulable jobs on a bounded queue,
// progress streams over server-sent events, identical submissions coalesce
// onto one execution, and every finished job's learned kernel profile
// accumulates in a store that warm-starts later jobs on the same workload
// — the service form of critter-tune's -profile-in/-profile-out loop.
// With -store the history and profiles are durable: finished jobs,
// their result envelopes, and the merged profiles survive restarts.
// Every job runs in this process, on -runners runner goroutines.
//
// Usage:
//
//	critter-serve [-addr 127.0.0.1:8080] [-runners 1] [-queue 16]
//	              [-workers 0] [-history 256] [-store DIR] [-grace 30s]
//	              [-debug-addr ADDR]
//
// API (JSON; see the README's Service section for the full table):
//
//	POST   /v1/jobs                 {"workload":"candmc","scale":"quick","eps":[0.125]}
//	                                (optional "strategy": exhaustive, random:N,
//	                                halving, or surrogate:N)
//	GET    /v1/jobs                 all jobs
//	GET    /v1/jobs/{id}            job status
//	DELETE /v1/jobs/{id}            cancel
//	GET    /v1/jobs/{id}/events     progress (SSE)
//	GET    /v1/jobs/{id}/result     result envelope (schemaVersion 3)
//	GET    /v1/workloads            registered workload catalog
//	GET    /v1/profiles/{workload}  accumulated warm-start profile
//
// With -addr ending in :0 the kernel picks a free port; the chosen
// address is printed as "listening on http://..." so scripts (like the CI
// smoke job) can scrape it. Shutdown is graceful: SIGINT/SIGTERM stops
// accepting requests, lets in-flight jobs finish within -grace, then
// cancels whatever is left.
//
// Observability: GET /v1/metrics (JSON) and GET /metrics (Prometheus
// text) expose the scheduler's instrument set, GET /v1/jobs/{id}/trace the
// last 4096 span events of a job's run, and -debug-addr starts a separate
// net/http/pprof listener. The pprof listener is opt-in and on its own
// address so profiling endpoints never share a port with the public API.
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
	runners := flag.Int("runners", 1, "concurrently executing jobs (<1 = 1)")
	queue := flag.Int("queue", 16, "bounded pending-job queue size")
	workers := flag.Int("workers", 0, "per-job concurrent sweep workers (0 = GOMAXPROCS)")
	history := flag.Int("history", 256, "finished jobs retained for status/result lookups (oldest evicted beyond this; <0 = unlimited)")
	storeDir := flag.String("store", "", "durable store directory for jobs + profiles (empty = in-memory only)")
	grace := flag.Duration("grace", 30*time.Second, "graceful-shutdown window for in-flight jobs")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	flag.Parse()

	if *debugAddr != "" {
		if err := startDebug(*debugAddr); err != nil {
			fmt.Fprintf(os.Stderr, "critter-serve: debug listener: %v\n", err)
			os.Exit(1)
		}
	}

	logger := log.New(os.Stderr, "critter-serve: ", log.LstdFlags)
	cfg := service.Config{
		Machine:    sim.DefaultMachine(),
		QueueSize:  *queue,
		Runners:    *runners,
		Workers:    *workers,
		MaxHistory: *history,
		Logf:       logger.Printf,
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
