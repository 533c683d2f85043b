package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	netrepl "opdelta/internal/transport/net"
	"opdelta/internal/transport/retry"
	"opdelta/internal/wal"
)

// runShip is the source side of networked replication: a load
// generator issues DML against the source through the Op-Delta capture
// wrapper, and a netrepl shipper streams the op log to the replication
// server with acked, resumable delivery. The shipper keeps no durable
// cursor of its own — after any restart (including kill -9) it resumes
// from the durable LSN the server names in its WELCOME, so nothing is
// lost and redelivered ops are deduplicated server-side.
//
// Shutdown is graceful on SIGINT/SIGTERM: load generation stops, the
// shipper drains its in-flight window, and the stream ends with a
// SHUTDOWN frame.
//
// The shipper always carries a Snapshotter, so a bare replica (topic
// behind the op log's truncation base) can negotiate a DBLog-style
// snapshot bootstrap in the handshake: chunked reads in PK order,
// bracketed by watermarks, interleaved with the live delta stream —
// writers are never blocked. With truncate, the op log is truncated at
// its current head on startup, forcing exactly that path on a fresh
// server; chunkRows/chunkDelay pace the chunk reads.
func runShip(serverAddr, metricsAddr string, o shipOpts, duration time.Duration, d diagOpts) error {
	reg := obs.Default()
	spans := newSpanTracer(reg, d)
	if metricsAddr != "" {
		if _, err := serveObs(metricsAddr, reg, nil, spans, d.pprof); err != nil {
			return err
		}
	}
	src, err := startSource(serverAddr, o, reg, spans)
	if err != nil {
		return err
	}
	waitStop(duration, nil, nil, src.errs.failed)
	return src.drain()
}

// shipOpts configures the source side.
type shipOpts struct {
	srcDir, source  string
	rate, chunkRows int
	chunkDelay      time.Duration
	truncate        bool
}

// source is the running source side: the source engine, its load
// generator and its shipper. drain stops it.
type source struct {
	db   *engine.DB
	sh   *netrepl.Shipper
	stop chan struct{}
	wg   sync.WaitGroup
	errs errOnce
}

// startSource opens the source under o.srcDir and starts its load
// generator and a shipper to serverAddr.
func startSource(serverAddr string, o shipOpts, reg *obs.Registry, spans *obs.SpanTracer) (_ *source, err error) {
	db, err := engine.Open(o.srcDir, engine.Options{Obs: reg, ObsDB: "src", WALSync: wal.SyncFull})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			db.Close()
		}
	}()
	tbl, err := ensureParts(db)
	if err != nil {
		return nil, err
	}
	view := opdelta.ViewDef{
		Name: "slim_parts", Source: "parts",
		Project:  []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}
	oplog, err := opdelta.NewTableLog(db)
	if err != nil {
		return nil, err
	}
	capture := &opdelta.Capture{DB: db, Log: oplog, Analyzer: opdelta.NewAnalyzer(view), Obs: reg}

	if o.truncate {
		if head := oplog.Seq(); head > 0 {
			if err := oplog.Truncate(head); err != nil {
				return nil, err
			}
			fmt.Printf("opdeltad: op log truncated at seq %d; a bare replica must bootstrap\n", head)
		}
	}
	snap := &opdelta.Snapshotter{
		DB: db, Log: oplog, Tables: []string{"parts"},
		ChunkRows: o.chunkRows, ChunkDelay: o.chunkDelay,
	}

	dial := func() (net.Conn, error) { return net.DialTimeout("tcp", serverAddr, 2*time.Second) }
	// Resume load generation past any id a previous run issued: ids are
	// issued in increasing order and deletes only target ids at least 8
	// behind the head, so the surviving max part_id is within 2 of the
	// last issued id — a 16-id stride clears it with room to spare.
	nextID := 0
	pkIdx, _ := tbl.Schema.ColIndex("part_id")
	if err := db.ScanTable(nil, "parts", func(row catalog.Tuple) error {
		if id := int(row[pkIdx].Int()); id > nextID {
			nextID = id
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if nextID > 0 {
		nextID += 16
	}

	s := &source{
		db: db,
		sh: netrepl.NewShipper(netrepl.ShipperConfig{
			Source:   o.source,
			Dial:     dial,
			Fetch:    oplog.Read,
			SchemaOf: db.Schema,
			Snapshot: snap,
			Obs:      reg,
			Spans:    spans,
			Retry:    retry.Policy{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Multiplier: 2, Jitter: 0.5},
		}),
		stop: make(chan struct{}),
		errs: errOnce{failed: make(chan struct{})},
	}
	fmt.Printf("opdeltad: shipping source %q from %s to %s\n", o.source, o.srcDir, serverAddr)
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.errs.set(loadgen(capture, nextID, o.rate, s.stop))
	}()
	go func() {
		defer s.wg.Done()
		if err := s.sh.Run(s.stop); err != nil {
			s.errs.set(fmt.Errorf("shipper: %w", err))
		}
	}()
	return s, nil
}

// drain stops load generation, lets the shipper flush its in-flight
// window and end the stream, and closes the source.
func (s *source) drain() error {
	close(s.stop)
	s.wg.Wait()
	fmt.Printf("opdeltad: shipper drained at acked seq %d\n", s.sh.Acked())
	s.errs.set(s.db.Close())
	return s.errs.get()
}

// loadgen issues rate statements per second through capture, with part
// ids from id+1 on, until stop closes: inserts with occasional
// PK-targeted updates and deletes, all bounded footprints so the
// parallel integrator's key-range locking gets exercised.
func loadgen(capture *opdelta.Capture, id, rate int, stop <-chan struct{}) error {
	if rate <= 0 {
		rate = 200
	}
	ticker := time.NewTicker(time.Second / time.Duration(rate))
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-ticker.C:
		}
		id++
		stmt := fmt.Sprintf(`INSERT INTO parts (part_id, status, qty) VALUES (%d, 'new', %d)`, id, id%1000)
		switch {
		case id%8 == 0:
			stmt = fmt.Sprintf(`UPDATE parts SET status = 'hot' WHERE part_id = %d`, id-4)
		case id%16 == 9:
			stmt = fmt.Sprintf(`DELETE FROM parts WHERE part_id = %d`, id-8)
		}
		if _, err := capture.Exec(nil, stmt); err != nil {
			return err
		}
	}
}
