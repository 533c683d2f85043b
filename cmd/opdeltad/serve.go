package main

import (
	"errors"
	"fmt"
	"net"
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
// batches in per-source durable queue topics, and applies each topic
// into a per-source warehouse through the parallel integrator with
// exactly-once apply (AppliedLog dedup). The server owns the appliers:
// it starts one when a topic opens — a topic left under out/topics by
// an earlier run, or a shipper's first HELLO — and this file only
// opens each source's warehouse for it.
//
// Each source stream gets its own warehouse directory under out/:
// sequence numbers — the dedup and resume key — are per source stream,
// so streams do not share an applied log.
//
// Shutdown is graceful on SIGINT/SIGTERM: active shippers get a
// SHUTDOWN frame and are severed, then the appliers drain everything
// the server acked, and every warehouse commits durably before exit. A
// kill -9 instead of a signal loses none of that: the topic queue and
// applied log are durable, so the next start resumes from the last
// acked LSN.
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
	waitStop(duration, srv.served, srv.srv.Failed(), nil)
	return srv.drain()
}

// server is the running warehouse side: the netrepl server, which
// applies each source into its warehouse under out/wh-<source>. drain
// stops it.
type server struct {
	outDir   string
	reg      *obs.Registry
	spans    *obs.SpanTracer
	lis      net.Listener
	srv      *netrepl.Server
	served   chan struct{} // closed when Serve returns: before drain, a failure
	serveErr error

	mu  sync.Mutex
	dbs []*engine.DB
}

// startServer listens on listenAddr and applies every source whose
// topic exists under outDir or whose shipper connects.
func startServer(listenAddr, outDir string, reg *obs.Registry, tracer *obs.Tracer, spans *obs.SpanTracer) (*server, error) {
	lis, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("opdeltad: replication server listening on %s\n", lis.Addr())
	s := &server{outDir: outDir, reg: reg, spans: spans, lis: lis, served: make(chan struct{})}
	s.srv = netrepl.NewServer(netrepl.ServerConfig{
		Dir:     filepath.Join(outDir, "topics"),
		Obs:     reg,
		Tracer:  tracer,
		Spans:   spans,
		Replica: s.openReplica,
	})
	go func() {
		defer close(s.served)
		s.serveErr = s.srv.Serve(lis)
	}()
	return s, nil
}

// openReplica opens the source's warehouse, with its parts replica, as
// the server's Replica for the source.
func (s *server) openReplica(source string) (*netrepl.Replica, error) {
	db, err := engine.Open(filepath.Join(s.outDir, "wh-"+source),
		engine.Options{Obs: s.reg, ObsDB: "wh-" + source, WALSync: wal.SyncFull})
	if err != nil {
		return nil, err
	}
	w := warehouse.New(db)
	tbl, err := ensureParts(db)
	if err == nil {
		err = w.RegisterReplica("parts", tbl.Schema, "part_id", "last_modified")
	}
	var r *netrepl.Replica
	if err == nil {
		r, err = netrepl.NewReplica(w, source, s.reg, s.spans)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	s.mu.Lock()
	s.dbs = append(s.dbs, db)
	s.mu.Unlock()
	fmt.Printf("opdeltad: applying source %q into %s\n", source, db.Dir())
	return r, nil
}

// drain shuts the server down — shippers severed, then every acked op
// applied — and closes every warehouse durably.
func (s *server) drain() error {
	errs := []error{s.srv.Shutdown()}
	s.lis.Close()
	<-s.served
	errs = append(errs, s.serveErr)
	s.mu.Lock()
	for _, db := range s.dbs {
		errs = append(errs, db.Close())
	}
	n := len(s.dbs)
	s.mu.Unlock()
	fmt.Printf("opdeltad: replication server drained, %d source(s) closed\n", n)
	return errors.Join(errs...)
}
