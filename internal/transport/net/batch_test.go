package netrepl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/fault"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/transport"
)

// encodedOps returns the source log's ops encoded as the shipper would
// send them.
func encodedOps(t *testing.T, src *replSource) (encs [][]byte, seqs []uint64) {
	t.Helper()
	ops, err := src.log.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		enc, err := op.Encode(nil, src.schema)
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
		seqs = append(seqs, op.Seq)
	}
	return encs, seqs
}

// shipUntilConverged runs the shipper and the applier until the server
// has acked want and the replica equals the source, then stops both.
func shipUntilConverged(t *testing.T, src *replSource, wh *replWarehouse, sh *Shipper, ap *Applier, want uint64) {
	t.Helper()
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
}

// TestTopicLastSeqAgreesWithTornBatch: a DELTA's ops reach the topic as
// one AppendBatch write. Cut that write at every byte; a server
// restarted over the result must recover as its dedup watermark exactly
// the last op whose frame is complete — the resume point it will name
// in WELCOME — and a resent batch must land only the ops past it.
func TestTopicLastSeqAgreesWithTornBatch(t *testing.T) {
	src := newReplSource(t)
	src.workload(t, 6, 0)
	encs, seqs := encodedOps(t, src)

	whole := fault.NewSimFS(1)
	q, err := transport.OpenQueueFS(whole, "/topics/s")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.AppendBatch(encs); err != nil {
		t.Fatal(err)
	}
	image, err := whole.ReadFile("/topics/s/queue.dat")
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(image); cut++ {
		var want uint64
		for i, end := 0, 0; i < len(encs); i++ {
			if end += 8 + len(encs[i]); end > cut {
				break
			}
			want = seqs[i]
		}
		fs := fault.NewSimFS(int64(cut))
		if err := fs.MkdirAll("/topics/s", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/topics/s/queue.dat", image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(ServerConfig{Dir: "/topics", FS: fs})
		topic, err := srv.Topic("s")
		if err != nil {
			t.Fatalf("cut %d: open topic: %v", cut, err)
		}
		if got := topic.LastSeq(); got != want {
			t.Fatalf("cut %d: recovered lastSeq %d, want %d", cut, got, want)
		}
		// The shipper resumes after want and resends; a full resend from
		// seq 0 must be deduplicated down to the missing suffix too.
		ack, err := srv.enqueue(topic, deltaPayload(0, encs), obs.TraceContext{}, 0)
		if err != nil || ack != seqs[len(seqs)-1] {
			t.Fatalf("cut %d: resend acked %d, %v", cut, ack, err)
		}
		var got []uint64
		if err := topic.Q.ForEach(func(msg []byte) error {
			seq, err := opdelta.PeekSeq(msg)
			got = append(got, seq)
			return err
		}); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(seqs) {
			t.Fatalf("cut %d: topic holds %v after resend, want %v", cut, got, seqs)
		}
		srv.Shutdown()
	}
}

// TestShipperResumesMidBatchAfterTornAppend: the server died with a
// DELTA's batch half on disk — three whole frames and part of a fourth.
// After the restart WELCOME names the third op, the shipper resumes
// mid-batch, and the warehouse ends up with every op applied exactly
// once: nothing lost, nothing redelivered, nothing skipped as a
// duplicate.
func TestShipperResumesMidBatchAfterTornAppend(t *testing.T) {
	src := newReplSource(t)
	src.workload(t, 20, 0)
	want := src.maxSeq(t)
	encs, seqs := encodedOps(t, src)

	dir := t.TempDir()
	q, err := transport.OpenQueue(filepath.Join(dir, "src-t"))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.AppendBatch(encs[:8]); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	cut := 0
	for _, enc := range encs[:3] {
		cut += 8 + len(enc)
	}
	cut += 8 + len(encs[3])/2
	if err := os.Truncate(filepath.Join(dir, "src-t", "queue.dat"), int64(cut)); err != nil {
		t.Fatal(err)
	}

	nw := fault.NewNet(fault.NetProfile{Seed: 5})
	reg := obs.NewRegistry()
	srv := startServer(t, nw, ServerConfig{Dir: dir, Obs: reg})
	topic, err := srv.Topic("src-t")
	if err != nil {
		t.Fatal(err)
	}
	if got := topic.LastSeq(); got != seqs[2] {
		t.Fatalf("recovered lastSeq %d, want %d", got, seqs[2])
	}
	wh := newReplWarehouse(t, src.schema)
	sh := NewShipper(ShipperConfig{
		Source: "src-t", Dial: nw.Dial, Fetch: src.log.Read, SchemaOf: src.schemaOf,
		Obs: reg, BatchOps: 8, Retry: fastPolicy,
	})
	ap := &Applier{Topic: topic, Integrator: wh.integ, SchemaOf: src.schemaOf, Obs: reg}
	shipUntilConverged(t, src, wh, sh, ap, want)
	if maxApplied, err := wh.integ.Applied.MaxSeq(); err != nil || maxApplied != want {
		t.Fatalf("applied MaxSeq = %d, %v; want %d", maxApplied, err, want)
	}
	applied := reg.Counter("netrepl_applied_ops_total", obs.L("source", "src-t")).Value()
	if applied != uint64(len(seqs)) {
		t.Fatalf("applier handled %d ops, the log holds %d", applied, len(seqs))
	}
	for name, c := range map[string]*obs.Counter{
		"server redelivered": reg.Counter("netrepl_server_redelivered_ops_total"),
		"apply duplicates":   wh.db.Obs().Counter("warehouse_apply_skipped_duplicate_total", obs.L("integrator", "parallel")),
	} {
		if c.Value() != 0 {
			t.Fatalf("%s = %d, want 0", name, c.Value())
		}
	}
}

// TestShippingStepsOverAbortedSeqs: aborted capturing transactions
// leave holes in the seq space. Each DELTA chains onto the last seq the
// shipper sent, not onto seq-1, so the holes neither stall the stream
// nor look like reordering to the server.
func TestShippingStepsOverAbortedSeqs(t *testing.T) {
	src := newReplSource(t)
	for i := 1; i <= 30; i++ {
		tx := src.db.Begin()
		stmt := fmt.Sprintf(`INSERT INTO parts (part_id, status, qty) VALUES (%d, 'new', %d)`, i, i)
		if _, err := src.capture.Exec(tx, stmt); err != nil {
			t.Fatal(err)
		}
		var err error
		if i%3 == 0 {
			err = tx.Abort()
		} else {
			err = tx.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	want := src.maxSeq(t)
	if want != 29 {
		t.Fatalf("highest committed seq = %d, want 29", want)
	}

	nw := fault.NewNet(fault.NetProfile{Seed: 9})
	reg := obs.NewRegistry()
	srv := startServer(t, nw, ServerConfig{Dir: t.TempDir(), Obs: reg})
	topic, err := srv.Topic("src-g")
	if err != nil {
		t.Fatal(err)
	}
	wh := newReplWarehouse(t, src.schema)
	sh := NewShipper(ShipperConfig{
		Source: "src-g", Dial: nw.Dial, Fetch: src.log.Read, SchemaOf: src.schemaOf,
		Obs: reg, BatchOps: 4, Retry: fastPolicy,
	})
	ap := &Applier{Topic: topic, Integrator: wh.integ, SchemaOf: src.schemaOf, Obs: reg}
	shipUntilConverged(t, src, wh, sh, ap, want)
	if n := reg.Counter("netrepl_server_out_of_order_batches_total").Value(); n != 0 {
		t.Fatalf("server saw %d out-of-order batches across the seq gaps", n)
	}
	if n := reg.Counter("netrepl_server_enqueued_ops_total").Value(); n != 20 {
		t.Fatalf("server enqueued %d ops, want the 20 committed ones", n)
	}
}

// TestApplierDrainsQueueOnStop: ops enqueued while the applier waits
// on its idle topic, followed at once by a graceful stop, are applied
// before Run returns — whether its wait ends on the append's wake or on
// stop — because the server has acked them to their shipper, and a
// drained shutdown promises the warehouse holds everything acked.
func TestApplierDrainsQueueOnStop(t *testing.T) {
	src := newReplSource(t)
	src.workload(t, 12, 0)
	want := src.maxSeq(t)
	encs, _ := encodedOps(t, src)

	srv := NewServer(ServerConfig{Dir: t.TempDir()})
	defer srv.Shutdown()
	topic, err := srv.Topic("src-s")
	if err != nil {
		t.Fatal(err)
	}
	wh := newReplWarehouse(t, src.schema)
	ap := &Applier{Topic: topic, Integrator: wh.integ, SchemaOf: src.schemaOf}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- ap.Run(stop) }()
	time.Sleep(20 * time.Millisecond) // let it find the queue empty and wait

	if ack, err := srv.enqueue(topic, deltaPayload(0, encs), obs.TraceContext{}, 0); err != nil || ack != want {
		t.Fatalf("enqueue acked %d, %v; want %d", ack, err, want)
	}
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("applier did not stop")
	}
	if got, err := wh.integ.Applied.MaxSeq(); err != nil || got != want {
		t.Fatalf("applied through seq %d, %v; the server acked %d", got, err, want)
	}
}

// TestServerQueueDepthPerSource: the server exports each topic's
// backlog as transport_queue_depth_bytes{source=…}. With no applier
// running, a DELTA's ops stay in the topic, so its gauge reads exactly
// the appended bytes (an 8-byte frame header per op) while another
// source's reads 0; once an applier has applied them it reads 0.
func TestServerQueueDepthPerSource(t *testing.T) {
	src := newReplSource(t)
	src.workload(t, 12, 0)
	want := src.maxSeq(t)
	encs, _ := encodedOps(t, src)

	reg := obs.NewRegistry()
	srv := NewServer(ServerConfig{Dir: t.TempDir(), Obs: reg})
	defer srv.Shutdown()
	topic, err := srv.Topic("src-d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Topic("src-e"); err != nil {
		t.Fatal(err)
	}
	depth := func(source string) float64 {
		t.Helper()
		m := reg.Snapshot().Get("transport_queue_depth_bytes", obs.L("source", source))
		if m == nil {
			t.Fatalf("no transport_queue_depth_bytes series for source %q", source)
		}
		return m.Value
	}
	if ack, err := srv.enqueue(topic, deltaPayload(0, encs), obs.TraceContext{}, 0); err != nil || ack != want {
		t.Fatalf("enqueue acked %d, %v; want %d", ack, err, want)
	}
	var appended float64
	for _, e := range encs {
		appended += float64(8 + len(e))
	}
	if got := depth("src-d"); got != appended || got <= 0 {
		t.Fatalf("src-d depth = %v, want the %v bytes appended", got, appended)
	}
	if got := depth("src-e"); got != 0 {
		t.Fatalf("src-e depth = %v, want 0: nothing was sent to it", got)
	}

	wh := newReplWarehouse(t, src.schema)
	ap := &Applier{Topic: topic, Integrator: wh.integ, SchemaOf: src.schemaOf}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- ap.Run(stop) }()
	waitFor(t, 10*time.Second, "ops applied", func() bool {
		got, err := wh.integ.Applied.MaxSeq()
		return err == nil && got == want
	})
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := depth("src-d"); got != 0 {
		t.Fatalf("src-d depth = %v after the applier read every op, want 0", got)
	}
}

// TestShipperPacesBacklog: a backlog leaves at shipRate, however fast
// the server takes it, so n ops need (n − one batch) / shipRate seconds
// from the first DELTA; an op that arrives alone afterwards is not held
// back.
func TestShipperPacesBacklog(t *testing.T) {
	const n = 2400
	ops := make([]*opdelta.Op, n+1)
	for i := range ops {
		ops[i] = &opdelta.Op{Seq: uint64(i + 1), Txn: uint64(i + 1), Kind: opdelta.OpUpdate, Table: "parts",
			Stmt: fmt.Sprintf("UPDATE parts SET qty = %d WHERE part_id = %d", i, i), Time: fixedNow()}
	}
	var visible atomic.Int64 // how many of ops the log has "committed"
	visible.Store(n)

	nw := fault.NewNet(fault.NetProfile{Seed: 5})
	reg := obs.NewRegistry()
	startServer(t, nw, ServerConfig{Dir: t.TempDir(), Obs: reg})
	sh := NewShipper(ShipperConfig{
		Source: "src-p", Dial: nw.Dial, Obs: reg, Retry: fastPolicy,
		Fetch: func(from uint64) ([]*opdelta.Op, error) { return ops[from:visible.Load()], nil },
	})
	stop := make(chan struct{})
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- sh.Run(stop) }()
	waitFor(t, 10*time.Second, "backlog acked", func() bool { return sh.Acked() == n })
	took := time.Since(start)
	if least := time.Duration(n-64) * time.Second / shipRate; took < least {
		t.Fatalf("%d ops acked in %v: faster than shipRate allows (%v)", n, took, least)
	}

	visible.Store(n + 1)
	start = time.Now()
	waitFor(t, time.Second, "single op acked", func() bool { return sh.Acked() == n+1 })
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Fatalf("a single op after the backlog took %v", took)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// hybridOps returns hybrid UPDATE ops with seqs 1, 2, … whose before
// image carries a status of each given size: a source's wide rows make
// an op any size.
func hybridOps(sizes ...int) []*opdelta.Op {
	ops := make([]*opdelta.Op, len(sizes))
	for i, n := range sizes {
		id := int64(i + 1)
		img := catalog.Tuple{catalog.NewInt(id), catalog.NewString(strings.Repeat("s", n)), catalog.NewInt(0), catalog.NewTime(fixedNow())}
		ops[i] = &opdelta.Op{Seq: uint64(id), Txn: uint64(id), Kind: opdelta.OpUpdate, Table: "parts",
			Stmt: fmt.Sprintf("UPDATE parts SET qty = 1 WHERE part_id = %d", id), Hybrid: true,
			Before: []catalog.Tuple{img}, Time: fixedNow()}
	}
	return ops
}

// fetchOps serves ops the way an op log's Read does.
func fetchOps(ops []*opdelta.Op) func(uint64) ([]*opdelta.Op, error) {
	return func(from uint64) ([]*opdelta.Op, error) {
		for i, op := range ops {
			if op.Seq > from {
				return ops[i:], nil
			}
		}
		return nil, nil
	}
}

// TestShipperSplitsDeltaAtMaxPayload: two 5 MiB ops do not fit one
// DELTA, so they leave in two, over one connection. A shipper that
// bounds a DELTA by op count alone writes 10 MiB, WriteFrame refuses
// it, and every reconnect fetches the same batch again.
func TestShipperSplitsDeltaAtMaxPayload(t *testing.T) {
	src := newReplSource(t)
	nw := fault.NewNet(fault.NetProfile{Seed: 13})
	reg := obs.NewRegistry()
	startServer(t, nw, ServerConfig{Dir: t.TempDir(), Obs: reg})
	sh := NewShipper(ShipperConfig{Source: "src-big", Dial: nw.Dial, Fetch: fetchOps(hybridOps(5<<20, 5<<20)),
		SchemaOf: src.schemaOf, Obs: reg, Retry: fastPolicy})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- sh.Run(stop) }()
	waitFor(t, 20*time.Second, "both ops acked", func() bool { return sh.Acked() == 2 })
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	l := obs.L("source", "src-big")
	if n := reg.Counter("netrepl_shipper_batches_sent_total", l).Value(); n != 2 {
		t.Fatalf("shipper sent %d DELTAs, want 2", n)
	}
	if n := reg.Counter("netrepl_shipper_reconnects_total", l).Value(); n != 1 {
		t.Fatalf("shipper connected %d times, want 1", n)
	}
}

// TestShipperFailsOnOpLargerThanAnyFrame: an op no DELTA can carry
// stops the shipper with an error naming the op, its size and
// MaxPayload, instead of reconnecting forever.
func TestShipperFailsOnOpLargerThanAnyFrame(t *testing.T) {
	src := newReplSource(t)
	nw := fault.NewNet(fault.NetProfile{Seed: 14})
	startServer(t, nw, ServerConfig{Dir: t.TempDir()})
	ops := hybridOps(9 << 20)
	enc, err := ops[0].Encode(nil, src.schema)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(ShipperConfig{Source: "src-huge", Dial: nw.Dial, Fetch: fetchOps(ops),
		SchemaOf: src.schemaOf, Retry: fastPolicy})
	stop := make(chan struct{})
	defer close(stop)
	done := make(chan error, 1)
	go func() { done <- sh.Run(stop) }()
	select {
	case err := <-done:
		for _, want := range []string{"op 1 ", fmt.Sprint(len(enc)), fmt.Sprint(MaxPayload)} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Run = %v, want an error naming %q", err, want)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Run still running 20 s after the oversized op")
	}
	if n := sh.Acked(); n != 0 {
		t.Fatalf("acked %d, want 0", n)
	}
}

// TestTopicRefusesFixedWidthOps: a topic whose messages are ops in the
// fixed-width layout of earlier builds (seq and txn as 8-byte words)
// fails to open with opdelta.ErrFixedWidthOp, at the recovery pass that
// reads its seqs, instead of recovering a misread watermark.
func TestTopicRefusesFixedWidthOps(t *testing.T) {
	dir := t.TempDir()
	q, err := transport.OpenQueue(filepath.Join(dir, "old-src"))
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		enc := encodedInsert(t, seq) // seq and txn both one varint byte
		old := binary.LittleEndian.AppendUint64(nil, seq)
		old = binary.LittleEndian.AppendUint64(old, seq)
		if err := q.Append(append(old, enc[2:]...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{Dir: dir})
	defer srv.Shutdown()
	if _, err := srv.Topic("old-src"); !errors.Is(err, opdelta.ErrFixedWidthOp) {
		t.Fatalf("opening a fixed-width topic: %v, want %v", err, opdelta.ErrFixedWidthOp)
	}
}
