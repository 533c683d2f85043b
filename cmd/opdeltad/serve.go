package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"opdelta/internal/engine"
	"opdelta/internal/obs"
	netrepl "opdelta/internal/transport/net"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
)

// runServe is the warehouse side of networked replication: a netrepl
// server accepts N source shippers on a TCP listener, lands their op
// batches in per-source durable queue topics, and one applier per
// source drains its topic into a per-source warehouse through the
// parallel integrator with exactly-once apply (AppliedLog dedup).
//
// Each source stream gets its own warehouse directory under out/:
// sequence numbers — the dedup and resume key — are per source stream,
// so streams do not share an applied log.
//
// Shutdown is graceful on SIGINT/SIGTERM: the listener closes, active
// shippers get a SHUTDOWN frame, appliers drain and ack their final
// batches, and every warehouse commits durably before exit. A kill -9
// instead of a signal loses none of that: the topic queue and applied
// log are durable, so the next start resumes from the last acked LSN.
func runServe(listenAddr, outDir, metricsAddr string, duration time.Duration, d diagOpts) error {
	reg := obs.Default()
	tracer := obs.NewTracer(reg, 512)
	spans := newSpanTracer(reg, d)
	if metricsAddr != "" {
		if _, err := serveObs(metricsAddr, reg, tracer, spans, d.pprof); err != nil {
			return err
		}
	}
	srv, err := startServer(listenAddr, outDir, reg, tracer, spans)
	if err != nil {
		return err
	}
	waitStop(duration, srv.errs.failed, nil)
	return srv.drain()
}

// server is the running warehouse side: the netrepl server, and per
// source a warehouse under out/wh-<source> with the applier draining
// the source's topic into it. drain stops it.
type server struct {
	outDir string
	reg    *obs.Registry
	tracer *obs.Tracer
	spans  *obs.SpanTracer
	lis    net.Listener
	srv    *netrepl.Server
	served chan struct{} // closed when Serve returns
	stop   chan struct{}
	wg     sync.WaitGroup
	errs   errOnce

	// Per-source state is created lazily and shared by two consumers
	// with different triggers: the server's Bootstrap callback needs the
	// bootstrapper when a bare replica's HELLO lands (before any applier
	// exists), and the applier manager needs the same warehouse and
	// bootstrapper when the topic appears. Whichever fires first builds
	// the state; the other reuses it.
	mu     sync.Mutex
	states map[string]*sourceState
}

type sourceState struct {
	db    *engine.DB
	integ *warehouse.ParallelIntegrator
	boot  *netrepl.Bootstrapper
}

// startServer listens on listenAddr and starts applying every source
// whose topic exists under outDir or whose shipper connects.
func startServer(listenAddr, outDir string, reg *obs.Registry, tracer *obs.Tracer, spans *obs.SpanTracer) (*server, error) {
	lis, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("opdeltad: replication server listening on %s\n", lis.Addr())
	s := &server{
		outDir: outDir, reg: reg, tracer: tracer, spans: spans, lis: lis,
		served: make(chan struct{}),
		stop:   make(chan struct{}),
		errs:   errOnce{failed: make(chan struct{})},
		states: make(map[string]*sourceState),
	}
	s.srv = netrepl.NewServer(netrepl.ServerConfig{
		Dir:   filepath.Join(outDir, "topics"),
		Obs:   reg,
		Spans: spans,
		Bootstrap: func(source string) (*netrepl.Bootstrapper, error) {
			st, err := s.ensureState(source)
			if err != nil {
				return nil, err
			}
			return st.boot, nil
		},
	})
	go func() {
		defer close(s.served)
		err := s.srv.Serve(lis)
		select {
		case <-s.stop: // drain closed the listener
		default:
			s.errs.set(err)
		}
	}()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.errs.set(s.watch())
	}()
	return s, nil
}

// watch starts an applier for every source, until stop closes: first
// for the topics a previous run left on disk, then for each topic a
// shipper's HELLO opens.
func (s *server) watch() error {
	entries, _ := os.ReadDir(filepath.Join(s.outDir, "topics")) // none before the first run
	for _, e := range entries {
		if e.IsDir() {
			if _, err := s.srv.Topic(e.Name()); err != nil {
				return err
			}
		}
	}
	started := make(map[string]bool)
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		for _, source := range s.srv.Sources() {
			if !started[source] {
				started[source] = true
				if err := s.startApplier(source); err != nil {
					return err
				}
			}
		}
		select {
		case <-s.stop:
			return nil
		case <-ticker.C:
		}
	}
}

func (s *server) ensureState(source string) (_ *sourceState, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.states[source]; ok {
		return st, nil
	}
	db, err := engine.Open(filepath.Join(s.outDir, "wh-"+source),
		engine.Options{Obs: s.reg, ObsDB: "wh-" + source, WALSync: wal.SyncFull})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			db.Close()
		}
	}()
	w := warehouse.New(db)
	tbl, err := ensureParts(db)
	if err != nil {
		return nil, err
	}
	if err := w.RegisterReplica("parts", tbl.Schema, "part_id", "last_modified"); err != nil {
		return nil, err
	}
	applied, err := warehouse.EnsureAppliedLog(w)
	if err != nil {
		return nil, err
	}
	blog, err := warehouse.EnsureBootstrapLog(w)
	if err != nil {
		return nil, err
	}
	st := &sourceState{
		db:    db,
		integ: &warehouse.ParallelIntegrator{W: w, Workers: 4, Applied: applied},
		boot:  &netrepl.Bootstrapper{Log: blog, Applied: applied, Source: source, Obs: s.reg, Spans: s.spans},
	}
	s.states[source] = st
	return st, nil
}

// startApplier starts the source's applier: into its own warehouse,
// wired to the source's bootstrapper so snapshot chunks settle on the
// apply loop.
func (s *server) startApplier(source string) error {
	st, err := s.ensureState(source)
	if err != nil {
		return err
	}
	topic, err := s.srv.Topic(source)
	if err != nil {
		return err
	}
	ap := &netrepl.Applier{
		Topic:      topic,
		Integrator: st.integ,
		SchemaOf:   schemaOf(st.db),
		Bootstrap:  st.boot,
		Tracer:     s.tracer,
		Spans:      s.spans,
		Obs:        s.reg,
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := ap.Run(s.stop); err != nil {
			s.errs.set(fmt.Errorf("applier %s: %w", source, err))
		}
	}()
	fmt.Printf("opdeltad: applying source %q into %s\n", source, st.db.Dir())
	return nil
}

// drain stops accepting, lets the appliers apply everything enqueued,
// notifies the shippers, and closes every warehouse durably.
func (s *server) drain() error {
	close(s.stop)
	s.lis.Close()
	s.wg.Wait()
	s.errs.set(s.srv.Shutdown())
	<-s.served
	s.mu.Lock()
	for source, st := range s.states {
		if err := st.db.Close(); err != nil {
			s.errs.set(fmt.Errorf("close %s: %w", source, err))
		}
	}
	n := len(s.states)
	s.mu.Unlock()
	fmt.Printf("opdeltad: replication server drained, %d source(s) closed\n", n)
	return s.errs.get()
}
