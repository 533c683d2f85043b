package netrepl

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/transport/retry"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
)

// fastPolicy keeps reconnect backoff tight for tests.
var fastPolicy = retry.Policy{Base: time.Millisecond, Cap: 20 * time.Millisecond, Multiplier: 2, Jitter: 0.5}

const partsDDL = `CREATE TABLE parts (
	part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT, last_modified TIMESTAMP
) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`

// fixedNow pins both engines' clocks so the engine-stamped timestamp
// column comes out identical at the source and the replica.
func fixedNow() time.Time { return time.Unix(1_700_000_000, 0).UTC() }

// replSource is a delta-capturing source database with an op log.
type replSource struct {
	db      *engine.DB
	log     *opdelta.TableLog
	capture *opdelta.Capture
	schema  *catalog.Schema
}

func newReplSource(t *testing.T) *replSource {
	t.Helper()
	db, err := engine.Open(t.TempDir(), engine.Options{WALSync: wal.SyncFlush, Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	view := opdelta.ViewDef{
		Name: "slim_parts", Source: "parts",
		Project:  []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}
	log, err := opdelta.NewTableLog(db)
	if err != nil {
		t.Fatal(err)
	}
	capture := &opdelta.Capture{DB: db, Log: log, Analyzer: opdelta.NewAnalyzer(view)}
	return &replSource{db: db, log: log, capture: capture, schema: tbl.Schema}
}

// workload runs n statements (inserts with interleaved updates and
// deletes) through the capture wrapper; ids offset avoids PK collisions
// when two sources share one warehouse namespace check.
func (s *replSource) workload(t *testing.T, n, offset int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		id := offset + i
		stmt := fmt.Sprintf(`INSERT INTO parts (part_id, status, qty) VALUES (%d, 'new', %d)`, id, id%97)
		switch {
		case i%7 == 0:
			stmt = fmt.Sprintf(`UPDATE parts SET status = 'hot' WHERE part_id = %d`, id-3)
		case i%13 == 5:
			stmt = fmt.Sprintf(`DELETE FROM parts WHERE part_id = %d`, id-6)
		}
		if _, err := s.capture.Exec(nil, stmt); err != nil {
			t.Fatal(err)
		}
	}
}

func (s *replSource) schemaOf(table string) (*catalog.Schema, error) {
	tbl, err := s.db.Table(table)
	if err != nil {
		return nil, err
	}
	return tbl.Schema, nil
}

// maxSeq returns the highest op seq in the source log.
func (s *replSource) maxSeq(t *testing.T) uint64 {
	t.Helper()
	ops, err := s.log.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		return 0
	}
	return ops[len(ops)-1].Seq
}

// replWarehouse is a warehouse with a parts replica and an applied log
// for exactly-once integration.
type replWarehouse struct {
	db     *engine.DB
	wh     *warehouse.Warehouse
	integ  *warehouse.ParallelIntegrator
	schema *catalog.Schema
}

func newReplWarehouse(t *testing.T, schema *catalog.Schema) *replWarehouse {
	t.Helper()
	db, err := engine.Open(t.TempDir(), engine.Options{WALSync: wal.SyncFlush, Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	wh := warehouse.New(db)
	if err := wh.RegisterReplica("parts", schema, "part_id", "last_modified"); err != nil {
		t.Fatal(err)
	}
	applied, err := warehouse.EnsureAppliedLog(wh)
	if err != nil {
		t.Fatal(err)
	}
	integ := &warehouse.ParallelIntegrator{W: wh, Workers: 2, Applied: applied}
	return &replWarehouse{db: db, wh: wh, integ: integ, schema: schema}
}

// tableRows snapshots a table as formatted rows for equivalence checks.
func tableRows(t *testing.T, db *engine.DB, name string) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	if err := db.ScanTable(nil, name, func(row catalog.Tuple) error {
		out[fmt.Sprint(row)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameRows(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startServer runs a server over the given fault net and returns it.
func startServer(t *testing.T, nw *fault.Net, cfg ServerConfig) *Server {
	t.Helper()
	srv := NewServer(cfg)
	lis := nw.Listener()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Shutdown()
		nw.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv
}

// TestReplicationEndToEnd ships a captured workload over a reliable
// network into a warehouse and checks the replica matches the source
// byte for byte, exactly once.
func TestReplicationEndToEnd(t *testing.T) {
	src := newReplSource(t)
	src.workload(t, 60, 0)
	want := src.maxSeq(t)

	nw := fault.NewNet(fault.NetProfile{Seed: 1})
	reg := obs.NewRegistry()
	srv := startServer(t, nw, ServerConfig{Dir: t.TempDir(), Obs: reg})
	wh := newReplWarehouse(t, src.schema)
	topic, err := srv.Topic("src-a")
	if err != nil {
		t.Fatal(err)
	}

	sh := NewShipper(ShipperConfig{
		Source:   "src-a",
		Dial:     nw.Dial,
		Fetch:    src.log.Read,
		SchemaOf: src.schemaOf,
		Obs:      reg,
		Retry:    fastPolicy,
	})
	ap := &Applier{Topic: topic, Integrator: wh.integ, SchemaOf: src.schemaOf, Obs: reg}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	var shipErr, applyErr error
	go func() { defer wg.Done(); shipErr = sh.Run(stop) }()
	go func() { defer wg.Done(); applyErr = ap.Run(stop) }()

	waitFor(t, 10*time.Second, "full ack", func() bool { return sh.Acked() == want })
	waitFor(t, 10*time.Second, "replica convergence", func() bool {
		return sameRows(tableRows(t, src.db, "parts"), tableRows(t, wh.db, "parts"))
	})
	close(stop)
	wg.Wait()
	if shipErr != nil || applyErr != nil {
		t.Fatalf("ship err %v, apply err %v", shipErr, applyErr)
	}
	if topic.LastSeq() != want {
		t.Fatalf("topic lastSeq = %d, want %d", topic.LastSeq(), want)
	}
	maxApplied, err := wh.integ.Applied.MaxSeq()
	if err != nil {
		t.Fatal(err)
	}
	if maxApplied != want {
		t.Fatalf("applied MaxSeq = %d, want %d", maxApplied, want)
	}
}

// TestReplicationFaultyNetworkConverges runs the same pipeline over a
// hostile network — drops, duplicates, reorders, truncations, cuts —
// and requires byte-equivalent convergence plus evidence the recovery
// machinery actually fired.
func TestReplicationFaultyNetworkConverges(t *testing.T) {
	src := newReplSource(t)
	src.workload(t, 50, 0)
	want := src.maxSeq(t)

	nw := fault.NewNet(fault.NetProfile{
		Seed:     42,
		DropProb: 0.05, DupProb: 0.05, ReorderProb: 0.05,
		TruncateProb: 0.02, CutProb: 0.01, DialFailProb: 0.1,
		DelayProb: 0.1, MaxDelay: time.Millisecond,
	})
	reg := obs.NewRegistry()
	srv := startServer(t, nw, ServerConfig{Dir: t.TempDir(), Obs: reg})
	wh := newReplWarehouse(t, src.schema)
	topic, err := srv.Topic("src-b")
	if err != nil {
		t.Fatal(err)
	}

	sh := NewShipper(ShipperConfig{
		Source:   "src-b",
		Dial:     nw.Dial,
		Fetch:    src.log.Read,
		SchemaOf: src.schemaOf,
		Obs:      reg,
		BatchOps: 4, // many frames → many fault opportunities
		Retry:    fastPolicy,
		// Tight timeouts so lost DELTA/ACK frames trigger reconnect fast.
		AckTimeout: 50 * time.Millisecond,
	})
	ap := &Applier{Topic: topic, Integrator: wh.integ, SchemaOf: src.schemaOf, Obs: reg}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	var applyErr error
	go func() { defer wg.Done(); sh.Run(stop) }()
	go func() { defer wg.Done(); applyErr = ap.Run(stop) }()

	waitFor(t, 30*time.Second, "full ack under faults", func() bool { return sh.Acked() == want })
	waitFor(t, 30*time.Second, "replica convergence under faults", func() bool {
		return sameRows(tableRows(t, src.db, "parts"), tableRows(t, wh.db, "parts"))
	})
	close(stop)
	wg.Wait()
	if applyErr != nil {
		t.Fatalf("apply err %v", applyErr)
	}
	stats := nw.Stats()
	if stats.Drops == 0 && stats.Cuts == 0 && stats.Truncates == 0 {
		t.Fatalf("fault profile injected nothing: %+v", stats)
	}
	if snap := reg.Snapshot(); len(snap.Metrics) == 0 {
		t.Fatal("empty metrics snapshot")
	}
}

// TestShipperResumesAfterServerRestart kills the server mid-stream,
// restarts it over the same topic directory, and checks the shipper
// resumes from the durable seq with no gap and no duplicate in the
// queue.
func TestShipperResumesAfterServerRestart(t *testing.T) {
	src := newReplSource(t)
	src.workload(t, 30, 0)
	want := src.maxSeq(t)

	dir := t.TempDir()
	nw := fault.NewNet(fault.NetProfile{Seed: 7})
	srv1 := NewServer(ServerConfig{Dir: dir})
	lis1 := nw.Listener()
	done1 := make(chan struct{})
	go func() { defer close(done1); srv1.Serve(lis1) }()

	// Half-open dial function that always targets the *current* net.
	var netMu sync.Mutex
	cur := nw
	dial := func() (net.Conn, error) {
		netMu.Lock()
		defer netMu.Unlock()
		return cur.Dial()
	}

	topic1, err := srv1.Topic("src-r")
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(ShipperConfig{
		Source: "src-r", Dial: dial,
		Fetch: src.log.Read, SchemaOf: src.schemaOf,
		BatchOps: 2, Retry: fastPolicy, AckTimeout: 100 * time.Millisecond,
	})
	stop := make(chan struct{})
	shipDone := make(chan error, 1)
	go func() { shipDone <- sh.Run(stop) }()

	// Let a prefix land, then hard-stop the first server.
	waitFor(t, 10*time.Second, "prefix delivery", func() bool { return topic1.LastSeq() >= want/3 })
	srv1.Shutdown()
	nw.Close()
	<-done1
	// Sampled after the handlers have drained: a DELTA in flight while
	// the server was going down may still have landed.
	atRestart := topic1.LastSeq()

	// Restart over the same directory: the topic's lastSeq must be
	// recovered from the queue file, and WELCOME resumes the shipper
	// past everything already durable.
	nw2 := fault.NewNet(fault.NetProfile{Seed: 8})
	netMu.Lock()
	cur = nw2
	netMu.Unlock()
	srv2 := startServer(t, nw2, ServerConfig{Dir: dir})
	topic2, err := srv2.Topic("src-r")
	if err != nil {
		t.Fatal(err)
	}
	if got := topic2.LastSeq(); got != atRestart {
		t.Fatalf("recovered lastSeq = %d, want %d", got, atRestart)
	}

	waitFor(t, 10*time.Second, "full ack after restart", func() bool { return sh.Acked() == want })
	close(stop)
	if err := <-shipDone; err != nil {
		t.Fatalf("ship: %v", err)
	}

	// The queue must hold every op exactly once across both server
	// lifetimes: seqs strictly ascending with no gaps up to want.
	var seqs []uint64
	if err := topic2.Q.ForEach(func(msg []byte) error {
		seq, err := opSeq(msg)
		if err != nil {
			return err
		}
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ops, err := src.log.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != len(ops) {
		t.Fatalf("queue holds %d ops, source log has %d", len(seqs), len(ops))
	}
	for i := range seqs {
		if seqs[i] != ops[i].Seq {
			t.Fatalf("queue op %d has seq %d, want %d", i, seqs[i], ops[i].Seq)
		}
	}
}

// TestServerBusyAndReject covers load shedding and permanent rejection
// at the protocol level with raw connections.
func TestServerBusyAndReject(t *testing.T) {
	nw := fault.NewNet(fault.NetProfile{Seed: 3})
	srv := startServer(t, nw, ServerConfig{Dir: t.TempDir(), MaxConns: 1, Lease: time.Second})

	// First connection occupies the only slot.
	c1, err := nw.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := WriteFrame(c1, FrameHello, 0, helloPayload("only", 0, 0)); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err := ReadFrame(c1)
	if err != nil || typ != FrameWelcome {
		t.Fatalf("first conn: %s, %v", frameName(typ), err)
	}
	if seq, _, _, _, err := parseWelcome(payload); err != nil || seq != 0 {
		t.Fatalf("fresh topic WELCOME seq = %d, %v", seq, err)
	}

	// Second connection is shed with BUSY.
	c2, err := nw.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, _, _, err = ReadFrame(c2)
	if err != nil || typ != FrameBusy {
		t.Fatalf("second conn: %s, %v (want BUSY)", frameName(typ), err)
	}

	// Drop the first; its slot frees, and a HELLO naming any version but
	// Version is REJECTed with a reason that names it: a future version,
	// and version 2's shape (uvarint base, then source, no timestamp).
	if err := WriteFrame(c1, FrameShutdown, 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, hello := range [][]byte{append([]byte{99}, "late"...), append([]byte{2, 0}, "old"...)} {
		want := fmt.Sprintf("version %d", hello[0])
		waitFor(t, 5*time.Second, "a free slot", func() bool {
			c, err := nw.Dial()
			if err != nil {
				return false
			}
			defer c.Close()
			if err := WriteFrame(c, FrameHello, 0, hello); err != nil {
				return false
			}
			c.SetReadDeadline(time.Now().Add(time.Second))
			typ, _, payload, err = ReadFrame(c)
			return err == nil && typ != FrameBusy
		})
		if typ != FrameReject || !strings.Contains(string(payload), want) {
			t.Fatalf("HELLO naming %s: %s %q (want REJECT naming it)", want, frameName(typ), payload)
		}
	}
	if srv.cfg.Obs == nil {
		t.Fatal("server registry missing")
	}
}

// TestServerDedupReplayedBatch re-sends an identical DELTA batch and
// checks the server acks it without enqueueing duplicates.
func TestServerDedupReplayedBatch(t *testing.T) {
	nw := fault.NewNet(fault.NetProfile{Seed: 5})
	srv := startServer(t, nw, ServerConfig{Dir: t.TempDir(), Lease: time.Second})

	conn, err := nw.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, FrameHello, 0, helloPayload("dup-src", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := ReadFrame(conn); err != nil || typ != FrameWelcome {
		t.Fatalf("handshake: %v", err)
	}

	ops := make([][]byte, 3)
	for i := range ops {
		op := &opdelta.Op{Seq: uint64(i + 1), Txn: 1, Kind: opdelta.OpInsert, Table: "parts",
			Stmt: fmt.Sprintf("INSERT INTO parts (part_id) VALUES (%d)", i+1), Time: time.Now()}
		enc, err := op.Encode(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ops[i] = enc
	}
	sendBatch := func() uint64 {
		t.Helper()
		if err := WriteFrame(conn, FrameDelta, 0, deltaPayload(0, ops)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		typ, _, payload, err := ReadFrame(conn)
		if err != nil || typ != FrameAck {
			t.Fatalf("ack: %s, %v", frameName(typ), err)
		}
		seq, err := parseSeq(payload)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	if seq := sendBatch(); seq != 3 {
		t.Fatalf("first ack = %d, want 3", seq)
	}
	// Exact replay: acked again at the same watermark, nothing enqueued.
	if seq := sendBatch(); seq != 3 {
		t.Fatalf("replay ack = %d, want 3", seq)
	}
	// A batch chaining onto a seq the server never saw (a reordered
	// segment that jumped ahead) must be ignored with a duplicate-ack,
	// never enqueued: accepting it would let the skipped ops be dropped
	// as replays later.
	ahead := &opdelta.Op{Seq: 10, Txn: 4, Kind: opdelta.OpInsert, Table: "parts",
		Stmt: "INSERT INTO parts (part_id) VALUES (10)", Time: time.Now()}
	encAhead, err := ahead.Encode(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, FrameDelta, 0, deltaPayload(9, [][]byte{encAhead})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, _, payload, err := ReadFrame(conn)
	if err != nil || typ != FrameAck {
		t.Fatalf("out-of-order ack: %s, %v", frameName(typ), err)
	}
	if seq, _ := parseSeq(payload); seq != 3 {
		t.Fatalf("out-of-order batch acked %d, want duplicate-ack 3", seq)
	}

	topic, err := srv.Topic("dup-src")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := topic.Q.ForEach(func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("queue holds %d ops after replay, want 3", n)
	}
}

// TestServerChainCheck pins the DELTA chain check on its own: on a
// fresh topic, a batch chaining onto seq 5 (ops 6–8, as if the batch
// carrying ops 1–5 were reordered behind it) must be duplicate-acked at
// 0 with nothing appended and counted as out of order. Accepting it
// would move the watermark to 8, and ops 1–5 would then be dropped as
// replays. The in-order resend (ops 1–5, then 6–8) lands all 8 ops.
func TestServerChainCheck(t *testing.T) {
	nw := fault.NewNet(fault.NetProfile{Seed: 6})
	reg := obs.NewRegistry()
	srv := startServer(t, nw, ServerConfig{Dir: t.TempDir(), Obs: reg, Lease: time.Second})

	conn, err := nw.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, FrameHello, 0, helloPayload("chain-src", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := ReadFrame(conn); err != nil || typ != FrameWelcome {
		t.Fatalf("handshake: %v", err)
	}
	ops := make([][]byte, 8)
	for i := range ops {
		op := &opdelta.Op{Seq: uint64(i + 1), Txn: uint64(i + 1), Kind: opdelta.OpInsert, Table: "parts",
			Stmt: fmt.Sprintf("INSERT INTO parts (part_id) VALUES (%d)", i+1), Time: time.Now()}
		if ops[i], err = op.Encode(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	send := func(prevSeq uint64, batch [][]byte) uint64 {
		t.Helper()
		if err := WriteFrame(conn, FrameDelta, 0, deltaPayload(prevSeq, batch)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		typ, _, payload, err := ReadFrame(conn)
		if err != nil || typ != FrameAck {
			t.Fatalf("ack: %s, %v", frameName(typ), err)
		}
		seq, err := parseSeq(payload)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	topic, err := srv.Topic("chain-src")
	if err != nil {
		t.Fatal(err)
	}
	onTopic := func() int {
		t.Helper()
		n := 0
		if err := topic.Q.ForEach(func([]byte) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}

	if seq := send(5, ops[5:]); seq != 0 {
		t.Fatalf("batch ahead of the watermark acked %d, want duplicate-ack 0", seq)
	}
	if n := onTopic(); n != 0 {
		t.Fatalf("topic holds %d ops after the batch ahead, want 0", n)
	}
	if n := reg.Counter("netrepl_server_out_of_order_batches_total").Value(); n != 1 {
		t.Fatalf("out-of-order batches = %d, want 1", n)
	}
	if seq := send(0, ops[:5]); seq != 5 {
		t.Fatalf("first in-order batch acked %d, want 5", seq)
	}
	if seq := send(5, ops[5:]); seq != 8 {
		t.Fatalf("second in-order batch acked %d, want 8", seq)
	}
	if n := onTopic(); n != 8 {
		t.Fatalf("topic holds %d ops after the in-order resend, want 8", n)
	}
}

// TestShipperFatalOnReject: a REJECT must stop the shipper with an
// error, not loop through backoff forever.
func TestShipperFatalOnReject(t *testing.T) {
	nw := fault.NewNet(fault.NetProfile{Seed: 9})
	lis := nw.Listener()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if typ, _, _, err := ReadFrame(conn); err != nil || typ != FrameHello {
			return
		}
		WriteFrame(conn, FrameReject, 0, []byte("no such tenant"))
	}()
	defer nw.Close()

	sh := NewShipper(ShipperConfig{
		Source: "evicted", Dial: nw.Dial,
		Fetch: func(uint64) ([]*opdelta.Op, error) { return nil, nil },
		Retry: fastPolicy,
	})
	stop := make(chan struct{})
	defer close(stop)
	err := sh.Run(stop)
	if err == nil || errors.Is(err, errReconnect) {
		t.Fatalf("Run = %v, want fatal reject error", err)
	}
}
