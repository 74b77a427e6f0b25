// Command maxcrowdd is the long-running multi-tenant crowd-workload service:
// an HTTP API over a pool of concurrent crowdmax Sessions with per-tenant
// admission control, durable job records, and graceful drain. Each job names
// a workload mode — "max" (two-phase max-finding, the default), "topk"
// (ranked extraction, "k" ranks), or "score" (cardinal crowd scoring,
// "votes" votes per element) — and mixed-mode streams share the same slots,
// admission budgets, and drain/resume machinery.
//
// Endpoints (see internal/service for the full contract):
//
//	POST /v1/jobs              submit a job (202; 400/429/503 on refusal)
//	GET  /v1/jobs              list jobs
//	GET  /v1/jobs/{id}         job status and result
//	GET  /v1/jobs/{id}/events  JSONL event trace (?follow=1 streams)
//	GET  /healthz              liveness + drain status
//	GET  /debug/vars, /debug/pprof/...
//
// SIGTERM or SIGINT starts a graceful drain: admissions stop (503), every
// running session checkpoints and is persisted as interrupted, and the
// process exits 0. A later maxcrowdd over the same -dir resumes the
// interrupted jobs to bit-identical results.
//
// Examples:
//
//	maxcrowdd -dir /var/lib/maxcrowdd
//	maxcrowdd -addr 127.0.0.1:0 -addr-file /tmp/addr -dir state
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crowdmax"
	"crowdmax/internal/checkpoint"
	"crowdmax/internal/faults"
	"crowdmax/internal/service"
)

var (
	addr     = flag.String("addr", "127.0.0.1:8080", "listen address; use port 0 with -addr-file to pick a free port")
	addrFile = flag.String("addr-file", "", "write the bound listen address to this file once serving (for scripts using -addr :0)")
	dir      = flag.String("dir", "", "state directory for job records and session checkpoints (required)")
	maxConc  = flag.Int("max-concurrent", 8, "max concurrently admitted sessions; submissions past the cap get 429")
	ce       = flag.Float64("ce", 10, "price of one expert comparison (cn = 1)")
	tenJobs  = flag.Int("tenant-max-jobs", 0, "default per-tenant cap on concurrent jobs (0 = unlimited)")
	tenCost  = flag.Float64("tenant-max-cost", 0, "default per-tenant cap on cumulative monetary spend (0 = unlimited)")
	cmpLat   = flag.Duration("cmp-latency", 0, "sleep per comparison, emulating crowd round-trips (answers unchanged)")
	ckEvery  = flag.Int("checkpoint-every", 64, "per-job snapshot interval in paid comparisons")
	retryAft = flag.Duration("retry-after", time.Second, "Retry-After hint attached to 429 rejections")
	drainTmo = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight jobs to checkpoint on shutdown")
	faultsP  = flag.String("faults", "", "disk fault plan for torture runs, e.g. 'torn:0.5~0.05%*.job.tmp-*,enospc~0.02' (see internal/faults)")
	faultsS  = flag.Uint64("faults-seed", 1, "seed of the fault plan's probabilistic rules")
	allowF   = flag.Bool("allow-faults", false, "honor JobSpec.Fault tags (injected workload panics); torture runs only")
	watchdog = flag.Duration("watchdog", 0, "flag running jobs with no observable progress for this long (0 = off)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "maxcrowdd:", err)
		os.Exit(1)
	}
}

func run() error {
	if *dir == "" {
		return errors.New("-dir is required")
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "maxcrowdd: "+format+"\n", args...)
	}
	var fsys faults.FS
	if *faultsP != "" {
		plan, err := faults.ParsePlan(*faultsP)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		plan.Seed = *faultsS
		fsys = faults.NewInjector(faults.OS(), plan)
		logf("disk fault injection armed: %s (seed %d)", *faultsP, *faultsS)
	}
	srv, err := service.NewServer(service.Options{
		Dir:             *dir,
		MaxConcurrent:   *maxConc,
		Prices:          crowdmax.Prices{Naive: 1, Expert: *ce},
		DefaultTenant:   service.TenantLimits{MaxJobs: *tenJobs, MaxCost: *tenCost},
		CmpLatency:      *cmpLat,
		CheckpointEvery: *ckEvery,
		RetryAfter:      *retryAft,
		FS:              fsys,
		AllowFaults:     *allowF,
		WatchdogAfter:   *watchdog,
		Logf:            logf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Atomic, so a watcher never reads a half-written address.
		if err := checkpoint.WriteFileAtomic(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	logf("serving on %s (state %s, %d slots)", bound, *dir, *maxConc)

	httpSrv := newHTTPServer(srv.Handler(), defaultHTTPTimeouts)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: stop admissions, checkpoint in-flight sessions, persist
	// every record — then close the HTTP listener. The server keeps answering
	// status reads while the drain runs so clients can watch it settle.
	logf("signal received; draining (timeout %s)", *drainTmo)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTmo)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		httpSrv.Close()
		return err
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	logf("drained cleanly")
	return nil
}

// httpTimeouts bounds how long a connection may hold server resources
// without making progress.
type httpTimeouts struct {
	// ReadHeader bounds reading a request's headers: a client that stalls
	// mid-header is disconnected instead of pinning a connection forever.
	ReadHeader time.Duration
	// Read bounds reading a whole request, body included. It does not
	// limit the response: an event follower streams for as long as its job
	// runs.
	Read time.Duration
	// Idle bounds how long a keep-alive connection waits for its next
	// request.
	Idle time.Duration
}

// defaultHTTPTimeouts are maxcrowdd's limits. There is no write timeout:
// GET /v1/jobs/{id}/events?follow=1 streams for as long as the job runs.
var defaultHTTPTimeouts = httpTimeouts{
	ReadHeader: 10 * time.Second,
	Read:       time.Minute,
	Idle:       2 * time.Minute,
}

// newHTTPServer builds the HTTP server around the service handler.
func newHTTPServer(h http.Handler, t httpTimeouts) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: t.ReadHeader,
		ReadTimeout:       t.Read,
		IdleTimeout:       t.Idle,
	}
}
