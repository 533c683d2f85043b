package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
	netrepl "opdelta/internal/transport/net"
	"opdelta/internal/transport/retry"
	"opdelta/internal/warehouse"
	"opdelta/internal/workload"
)

// sourceID is the shipper's source id: the topic name at the server and
// the label on every netrepl_* series.
const sourceID = "bench"

// View and table names at the warehouse.
const (
	slimView = "slim_parts"      // projection (part_id, status), the opdeltad wiring
	aggView  = "parts_by_status" // GROUP BY status: COUNT(*), SUM(qty)
	joinView = "parts_priced"    // parts ⋈ qty_dim on qty
	dimTable = "qty_dim"
)

// loadTime stamps every pre-loaded row on both sides, so the initial
// source and replica are byte-identical.
var loadTime = time.Date(2000, 2, 29, 0, 0, 0, 0, time.UTC)

func dimSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "qty_key", Type: catalog.TypeInt64, NotNull: true},
		catalog.Column{Name: "price_band", Type: catalog.TypeString},
	)
}

func dimRow(k int64) catalog.Tuple {
	return catalog.Tuple{catalog.NewInt(k), catalog.NewString(fmt.Sprintf("band-%02d", k/50))}
}

// viewDefs returns the SPJ view definitions of a view set. The same
// definitions feed the source-side analyzer (which decides hybrid
// capture) and the warehouse registration, as opdeltad wires them.
func viewDefs(vs viewSet) []opdelta.ViewDef {
	slim := opdelta.ViewDef{
		Name: slimView, Source: "parts",
		Project:  []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}
	switch vs {
	case viewsPoint:
		return []opdelta.ViewDef{slim}
	case viewsRange:
		return []opdelta.ViewDef{slim, {
			Name: joinView, Source: "parts",
			Project:  []string{"part_id", "status", "qty", "qty_key", "price_band"},
			Join:     &opdelta.JoinSpec{Table: dimTable, LeftCol: "qty", RightCol: "qty_key"},
			SourcePK: "part_id", SourceTS: "last_modified",
		}}
	}
	return nil
}

func aggDef() warehouse.AggViewDef {
	return warehouse.AggViewDef{
		Name: aggView, Source: "parts", GroupBy: "status",
		Aggregates: []sqlmini.AggSpec{{Fn: sqlmini.AggCount}, {Fn: sqlmini.AggSum, Col: "qty"}},
	}
}

// directLoad bulk-loads tuples into a table through the loader path
// (no WAL, no triggers) and rebuilds its primary-key index.
func directLoad(db *engine.DB, table string, n int, row func(i int) catalog.Tuple) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	const batch = 5000
	recs := make([][]byte, 0, batch)
	flush := func() error {
		if len(recs) == 0 {
			return nil
		}
		_, err := t.Heap().DirectLoad(recs)
		recs = recs[:0]
		return err
	}
	for i := 0; i < n; i++ {
		enc, err := catalog.EncodeTuple(nil, t.Schema, row(i))
		if err != nil {
			return err
		}
		recs = append(recs, enc)
		if len(recs) == batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := t.Heap().Flush(); err != nil {
		return err
	}
	return t.RebuildIndex()
}

func partRow(i int) catalog.Tuple { return workload.PartRow(int64(i), loadTime) }

// stack is the system under test: source engine with capture and op
// log, warehouse engine with its views, and the replication pipeline
// between them.
type stack struct {
	spec workloadSpec
	dir  string
	reg  *obs.Registry

	src     *engine.DB
	oplog   *opdelta.TableLog
	capture *opdelta.Capture

	whDB    *engine.DB
	wh      *warehouse.Warehouse
	applied *warehouse.AppliedLog
	integ   *warehouse.ParallelIntegrator

	// appliedOps is the applier's netrepl_applied_ops_total handle: the
	// observer polls it to learn when each statement became durable at
	// the warehouse.
	appliedOps *obs.Counter
	// applyTxns is the integrator's warehouse_apply_txns_total handle.
	// Every statement is its own source transaction, so it counts ops as
	// each one commits, where appliedOps moves a batch at a time.
	applyTxns *obs.Counter

	pipe *pipeline
	// What the clients need of the current pipeline. They keep running
	// while the traced run swaps pipelines, so these are swapped under
	// them: the span recorder (nil: untraced) and the topic whose queue
	// depth the observer samples.
	rec   atomic.Pointer[recorder]
	topic atomic.Pointer[netrepl.Topic]
}

// openStack creates both databases under dir and loads them with the
// same rows; the warehouse views are loaded to match.
func openStack(spec workloadSpec, dir string) (*stack, error) {
	s := &stack{spec: spec, dir: dir, reg: obs.NewRegistry()}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var err error
	// PoolPages stays at the engine default.
	if s.src, err = engine.Open(filepath.Join(dir, "src"),
		engine.Options{Obs: s.reg, ObsDB: "src", WALSync: spec.sync}); err != nil {
		return nil, err
	}
	if err := workload.CreateParts(s.src); err != nil {
		return nil, err
	}
	if err := directLoad(s.src, "parts", spec.rows, partRow); err != nil {
		return nil, err
	}
	if s.oplog, err = opdelta.NewTableLog(s.src); err != nil {
		return nil, err
	}
	defs := viewDefs(spec.views)
	s.capture = &opdelta.Capture{DB: s.src, Log: s.oplog, Analyzer: opdelta.NewAnalyzer(defs...), Obs: s.reg}

	if s.whDB, err = engine.Open(filepath.Join(dir, "wh"),
		engine.Options{Obs: s.reg, ObsDB: "wh", WALSync: spec.sync}); err != nil {
		return nil, err
	}
	s.wh = warehouse.New(s.whDB)
	schema := workload.PartsSchema()
	if err := s.wh.RegisterReplica("parts", schema, "part_id", "last_modified"); err != nil {
		return nil, err
	}
	if err := directLoad(s.whDB, "parts", spec.rows, partRow); err != nil {
		return nil, err
	}
	if spec.views == viewsRange {
		if err := s.wh.RegisterReplica(dimTable, dimSchema(), "qty_key", ""); err != nil {
			return nil, err
		}
		if err := directLoad(s.whDB, dimTable, dimRows, func(i int) catalog.Tuple { return dimRow(int64(i)) }); err != nil {
			return nil, err
		}
	}
	for _, def := range defs {
		var joinSchema *catalog.Schema
		if def.Join != nil {
			joinSchema = dimSchema()
		}
		v, err := s.wh.RegisterView(def, schema, joinSchema)
		if err != nil {
			return nil, err
		}
		if err := s.loadView(v); err != nil {
			return nil, err
		}
	}
	if spec.views == viewsRange {
		if _, err := s.wh.RegisterAggView(aggDef(), schema); err != nil {
			return nil, err
		}
		for _, row := range expectedAgg(spec.rows, partRow) {
			if err := s.whDB.InsertTuple(nil, aggView, row); err != nil {
				return nil, err
			}
		}
		// The join view has no key of its own; without this index every
		// maintained row would scan the whole view.
		if err := s.whDB.CreateSecondaryIndex(joinView, "part_id"); err != nil {
			return nil, err
		}
	}
	if s.applied, err = warehouse.EnsureAppliedLog(s.wh); err != nil {
		return nil, err
	}
	s.integ = &warehouse.ParallelIntegrator{W: s.wh, Workers: 4, Applied: s.applied}
	s.appliedOps = s.reg.Counter("netrepl_applied_ops_total", obs.L("source", sourceID))
	s.applyTxns = s.reg.Counter("warehouse_apply_txns_total", obs.L("integrator", "parallel"))
	ok = true
	return s, nil
}

// loadView fills a freshly registered view with what maintenance would
// have produced had the pre-loaded rows arrived as inserts.
func (s *stack) loadView(v *warehouse.View) error {
	rows := expectedView(v.Def, s.spec.rows, partRow)
	return directLoad(s.whDB, v.Def.Name, len(rows), func(i int) catalog.Tuple { return rows[i] })
}

func (s *stack) close() {
	if s.pipe != nil {
		s.pipe.stop()
	}
	if s.whDB != nil {
		s.whDB.Close()
	}
	if s.src != nil {
		s.src.Close()
	}
}

// schemaOf resolves table schemas for ops that carry before images.
func schemaOf(db *engine.DB) func(string) (*catalog.Schema, error) {
	return func(table string) (*catalog.Schema, error) {
		t, err := db.Table(table)
		if err != nil {
			return nil, err
		}
		return t.Schema, nil
	}
}

// pipeline is one life of Shipper → TCP → Server topic → Applier, wired
// as cmd/opdeltad's ship.go and serve.go wire it. A stack can run
// several in sequence over the same databases: the server's WELCOME
// resumes the stream where the previous one stopped.
type pipeline struct {
	lis    net.Listener
	srv    *netrepl.Server
	sh     *netrepl.Shipper
	tracer *obs.Tracer
	spans  *obs.SpanTracer
	probes *probes

	stopCh    chan struct{}
	wg        sync.WaitGroup
	serveDone chan error

	mu  sync.Mutex
	err error
}

// probes are the harness's measurement points on the pipeline. The
// counters run in every mode because end-to-end metrics need them;
// spans and enqueue stamps are recorded only in a traced pipeline.
type probes struct {
	wireBytes    atomic.Int64 // bytes the shipper wrote to the socket
	writeBlockNs atomic.Int64 // time the shipper spent inside conn.Write
	fetches      atomic.Int64
	emptyFetches atomic.Int64
	fetchNs      atomic.Int64
	fetchedOps   atomic.Int64
	// enqueueStamps[i] is the unix ns at which op enqueueBase+i+1 became
	// durable on the topic; traced only.
	enqueueStamps []int64
	enqueueBase   int
}

// enqueuedAt returns when statement idx (op idx+1) was enqueued, or 0
// when this pipeline did not see it.
func (p *probes) enqueuedAt(idx int) int64 {
	if e := idx - p.enqueueBase; e >= 0 && e < len(p.enqueueStamps) {
		return p.enqueueStamps[e]
	}
	return 0
}

// countingConn is the shipper's view of the TCP connection.
type countingConn struct {
	net.Conn
	s *stack
	p *probes
}

func (c *countingConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	end := time.Now()
	c.p.wireBytes.Add(int64(n))
	c.p.writeBlockNs.Add(int64(end.Sub(start)))
	c.s.rec.Load().span("netrepl", "conn.write", 0, start, end)
	return n, err
}

// startPipeline brings the replication path up and returns once the
// shipper's handshake has completed. A recorder makes it the traced
// pipeline: Tracer and Spans set, harness wrappers recording; expectOps
// then sizes the buffers that keep every op's stamps.
func (s *stack) startPipeline(rec *recorder, expectOps int) error {
	p := &pipeline{stopCh: make(chan struct{}), serveDone: make(chan error, 1), probes: &probes{}}
	if rec != nil {
		// Ring sizes hold every op of the run, so the whole lifecycle can
		// be written out afterwards.
		p.tracer = obs.NewTracer(s.reg, expectOps)
		p.spans = obs.NewSpanTracer(s.reg, 4096)
		p.probes.enqueueStamps = make([]int64, 0, expectOps)
	}
	var err error
	if p.lis, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	addr := p.lis.Addr().String()
	pr := p.probes
	p.srv = netrepl.NewServer(netrepl.ServerConfig{
		Dir:   filepath.Join(s.dir, "topics"),
		Obs:   s.reg,
		Spans: p.spans,
		OnEnqueue: func(_ string, ops int) {
			if pr.enqueueStamps != nil {
				now := time.Now().UnixNano()
				for i := 0; i < ops; i++ {
					pr.enqueueStamps = append(pr.enqueueStamps, now)
				}
			}
		},
	})
	go func() { p.serveDone <- p.srv.Serve(p.lis) }()

	topic, err := p.srv.Topic(sourceID)
	if err != nil {
		p.lis.Close()
		return err
	}
	p.probes.enqueueBase = int(topic.LastSeq())
	ap := &netrepl.Applier{
		Topic:      topic,
		Integrator: s.integ,
		SchemaOf:   schemaOf(s.whDB),
		Tracer:     p.tracer,
		Spans:      p.spans,
		Obs:        s.reg,
	}
	p.sh = netrepl.NewShipper(netrepl.ShipperConfig{
		Source: sourceID,
		Dial: func() (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, s: s, p: pr}, nil
		},
		Fetch: func(from uint64) ([]*opdelta.Op, error) {
			start := time.Now()
			ops, err := s.oplog.Read(from)
			end := time.Now()
			pr.fetches.Add(1)
			if len(ops) == 0 {
				pr.emptyFetches.Add(1)
			}
			pr.fetchNs.Add(int64(end.Sub(start)))
			pr.fetchedOps.Add(int64(len(ops)))
			s.rec.Load().span("opdelta", "log.read", from+1, start, end)
			return ops, err
		},
		SchemaOf: schemaOf(s.src),
		Obs:      s.reg,
		Spans:    p.spans,
		Retry:    retry.Policy{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Multiplier: 2, Jitter: 0.5},
	})
	connects := s.reg.Counter("netrepl_server_connects_total")
	before := connects.Value()
	s.pipe = p
	s.rec.Store(rec)
	s.topic.Store(topic)
	p.run("applier", func() error { return ap.Run(p.stopCh) })
	p.run("shipper", func() error { return p.sh.Run(p.stopCh) })
	deadline := time.Now().Add(5 * time.Second)
	for connects.Value() == before {
		if err := p.failed(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shipper did not connect within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (p *pipeline) run(name string, fn func() error) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if err := fn(); err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = fmt.Errorf("%s: %w", name, err)
			}
			p.mu.Unlock()
		}
	}()
}

func (p *pipeline) failed() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// stop drains the pipeline the way opdeltad does on SIGTERM and waits
// for every goroutine it started.
func (p *pipeline) stop() error {
	close(p.stopCh)
	p.wg.Wait()
	p.lis.Close()
	err := p.srv.Shutdown()
	<-p.serveDone
	if perr := p.failed(); perr != nil {
		err = perr
	}
	return err
}

func (s *stack) stopPipeline() error {
	p := s.pipe
	s.pipe = nil
	return p.stop()
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
