package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/obs"
)

// diagOpts carries the diagnostics flags shared by every long-running
// mode: head-sampling rate and slow-trace threshold for the span
// tracer, and whether to mount net/http/pprof on the metrics mux.
type diagOpts struct {
	pprof       bool
	traceSample int
	slowSpan    time.Duration
}

// newSpanTracer builds the process's span tracer from the diagnostics
// flags, with slow traces logged to stdout.
func newSpanTracer(reg *obs.Registry, d diagOpts) *obs.SpanTracer {
	spans := obs.NewSpanTracer(reg, 512)
	spans.SetSampleEvery(d.traceSample)
	spans.SetSlowThreshold(d.slowSpan)
	spans.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	return spans
}

// serveObs starts the metrics endpoint and prints the resolved URL (so
// "-metrics 127.0.0.1:0" callers — tests, CI — learn the picked port).
// With pprofOn the mux additionally serves net/http/pprof profiles
// under /debug/pprof/.
func serveObs(addr string, reg *obs.Registry, tracer *obs.Tracer, spans *obs.SpanTracer, pprofOn bool) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	url := fmt.Sprintf("http://%s", ln.Addr())
	fmt.Printf("opdeltad: serving %s/metrics and %s/debug/{deltaz,spanz}\n", url, url)
	var h http.Handler = obs.Handler(reg, tracer, spans)
	if pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", h)
		h = mux
		fmt.Printf("opdeltad: pprof enabled under %s/debug/pprof/\n", url)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return url, nil
}

// runLive drives the whole delta pipeline inside one process: the
// warehouse side of -serve and the source side of -ship, connected
// through a loopback listener and sharing one registry, one lifecycle
// tracer and one span tracer. Every op is traced captured → enqueued →
// dequeued → locked → applied → durable, so /metrics reports live
// freshness lag and per-stage latency while the pipeline runs. The
// on-disk layout is -serve's (out/topics/<source>, out/wh-<source>),
// and a restart over the same -src/-out resumes exactly once.
func runLive(outDir, metricsAddr string, o shipOpts, duration time.Duration, d diagOpts) error {
	reg := obs.Default()
	tracer := obs.NewTracer(reg, 512)
	spans := newSpanTracer(reg, d)
	if metricsAddr != "" {
		if _, err := serveObs(metricsAddr, reg, tracer, spans, d.pprof); err != nil {
			return err
		}
	}
	srv, err := startServer("127.0.0.1:0", outDir, reg, tracer, spans)
	if err != nil {
		return err
	}
	src, err := startSource(srv.lis.Addr().String(), o, reg, spans)
	if err != nil {
		return errors.Join(err, srv.drain())
	}
	waitStop(duration, srv.errs.failed, src.errs.failed)
	// Source first: its shipper flushes the in-flight window, then the
	// server's appliers drain everything it acked.
	return errors.Join(src.drain(), srv.drain())
}

// partsDDL is the schema of the table every long-running mode
// replicates, created on first start at the source and the warehouse.
const partsDDL = `CREATE TABLE parts (
	part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT, last_modified TIMESTAMP
) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`

// ensureParts creates the parts table in db if it does not exist yet.
func ensureParts(db *engine.DB) (*engine.Table, error) {
	if tbl, err := db.Table("parts"); err == nil {
		return tbl, nil
	}
	if _, err := db.Exec(nil, partsDDL); err != nil {
		return nil, err
	}
	return db.Table("parts")
}

// schemaOf resolves table schemas from db for op encode and decode.
func schemaOf(db *engine.DB) func(string) (*catalog.Schema, error) {
	return func(table string) (*catalog.Schema, error) {
		t, err := db.Table(table)
		if err != nil {
			return nil, err
		}
		return t.Schema, nil
	}
}

// errOnce keeps the first error a pipeline's goroutines report; failed
// closes when it is set.
type errOnce struct {
	mu     sync.Mutex
	err    error
	failed chan struct{}
}

func (e *errOnce) set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
		close(e.failed)
	}
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// waitStop blocks until SIGINT/SIGTERM arrives, duration elapses (0 =
// no limit), or either side's failed channel closes (nil never does).
func waitStop(duration time.Duration, srvFailed, srcFailed <-chan struct{}) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	var timeout <-chan time.Time
	if duration > 0 {
		tm := time.NewTimer(duration)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case <-sig:
		fmt.Println("opdeltad: signal received, draining")
	case <-timeout:
	case <-srvFailed:
	case <-srcFailed:
	}
}
