package netrepl

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/obs"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
)

// TestShutdownAppliesEveryAckedOp shuts a server with Replica down while
// a shipper's DELTA is still being enqueued: Shutdown severs the
// connection, waits for its handler to land the batch, and only then
// drains the applier, so when it returns every op on the topic — every
// op the server could have acked — is applied.
func TestShutdownAppliesEveryAckedOp(t *testing.T) {
	src := newReplSource(t)
	src.workload(t, 12, 0)
	encs, seqs := encodedOps(t, src)
	wh := newReplWarehouse(t, src.schema)
	replica, err := NewReplica(wh.wh, "src", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{
		Dir:     t.TempDir(),
		Replica: func(string) (*Replica, error) { return replica, nil },
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go srv.Serve(lis)

	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := WriteFrame(c, FrameHello, 0, helloPayload("src", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := ReadFrame(c); err != nil || typ != FrameWelcome {
		t.Fatalf("handshake: %s, %v", frameName(typ), err)
	}
	topic, err := srv.Topic("src")
	if err != nil {
		t.Fatal(err)
	}
	// Hold the topic so the handler stalls mid-enqueue, and let Shutdown
	// start (and the applier go idle) before the batch lands.
	topic.mu.Lock()
	if err := WriteFrame(c, FrameDelta, 0, deltaPayload(0, encs)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown() }()
	time.Sleep(50 * time.Millisecond)
	topic.mu.Unlock()
	if err := <-shut; err != nil {
		t.Fatal(err)
	}

	want := seqs[len(seqs)-1]
	if topic.LastSeq() != want {
		t.Fatalf("topic holds seq %d, want %d: the batch never landed", topic.LastSeq(), want)
	}
	applied, err := replica.Integrator.Applied.MaxSeq()
	if err != nil {
		t.Fatal(err)
	}
	if applied != want {
		t.Fatalf("applied MaxSeq = %d after Shutdown, topic holds %d", applied, want)
	}
}

// TestRestartedServerAppliesRecoveredBacklog lands a workload in a topic
// with no Replica (nothing applies it), then restarts the server over
// the same Dir with Replica set: Serve recovers the topic through
// cfg.FS and applies its backlog with no shipper connected. The topic
// is never acked, so the applier finds its place in the AppliedLog.
//
// In the mid-batch case the warehouse already holds a prefix of the
// source transactions — what a restart in the middle of a batch leaves,
// since the integrator commits in source order — and its high-water
// seq ends that prefix. The restarted applier must resume at the op
// after it: the integrator applies exactly the suffix, once, and sees
// none of the prefix again.
func TestRestartedServerAppliesRecoveredBacklog(t *testing.T) {
	for _, midBatch := range []bool{false, true} {
		name := "empty warehouse"
		if midBatch {
			name = "restart mid-batch"
		}
		t.Run(name, func(t *testing.T) { testRestartedServerAppliesRecoveredBacklog(t, midBatch) })
	}
}

func testRestartedServerAppliesRecoveredBacklog(t *testing.T, midBatch bool) {
	src := newReplSource(t)
	src.workload(t, 60, 0)
	want := src.maxSeq(t)
	fs := fault.NewSimFS(1) // only cfg.FS can see the topics

	nw1 := fault.NewNet(fault.NetProfile{Seed: 12})
	srv1 := startServer(t, nw1, ServerConfig{Dir: "/topics", FS: fs})
	sh := NewShipper(ShipperConfig{
		Source: "src", Dial: nw1.Dial,
		Fetch: src.log.Read, SchemaOf: src.schemaOf,
		Retry: fastPolicy,
	})
	stop := make(chan struct{})
	shipped := make(chan error, 1)
	go func() { shipped <- sh.Run(stop) }()
	waitFor(t, 10*time.Second, "full ack", func() bool { return sh.Acked() == want })
	close(stop)
	if err := <-shipped; err != nil {
		t.Fatal(err)
	}
	if err := srv1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	wh := newReplWarehouse(t, src.schema)
	replica, err := NewReplica(wh.wh, "src", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := src.log.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	k := 0 // the ops the warehouse holds before the restart
	if midBatch {
		for k = len(ops) / 2; ops[k-1].Txn == ops[k].Txn; k++ {
		}
		if _, err := replica.Integrator.Apply(ops[:k]); err != nil {
			t.Fatal(err)
		}
	}
	applied := replica.Integrator.Applied
	high, err := applied.MaxSeq()
	if err != nil || (k > 0 && high != ops[k-1].Seq) || (k == 0 && high != 0) {
		t.Fatalf("high-water seq %d (%v) before the restart, with %d of %d ops applied", high, err, k, len(ops))
	}
	counter := func(name string) *obs.Counter {
		return wh.db.Obs().Counter(name, obs.L("integrator", "parallel"))
	}
	records0 := counter("warehouse_apply_records_total").Value()
	srv2 := startServer(t, fault.NewNet(fault.NetProfile{Seed: 13}), ServerConfig{
		Dir: "/topics", FS: fs,
		Replica: func(string) (*Replica, error) { return replica, nil },
	})
	waitFor(t, 10*time.Second, fmt.Sprintf("op %d applied", want), func() bool {
		high, err := applied.MaxSeq()
		return err == nil && high == want
	})
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !sameRows(tableRows(t, src.db, "parts"), tableRows(t, wh.db, "parts")) {
		t.Fatal("replica differs from the source after applying the recovered backlog")
	}
	if got, dup := counter("warehouse_apply_records_total").Value()-records0, counter("warehouse_apply_skipped_duplicate_total").Value(); got != uint64(len(ops)-k) || dup != 0 {
		t.Fatalf("the restarted applier applied %d ops and skipped %d as duplicates; want the %d above the high-water seq and none",
			got, dup, len(ops)-k)
	}
	if rows := tableRows(t, wh.db, warehouse.AppliedLogName); len(rows) != 1 {
		t.Fatalf("%s holds %d rows, want 1", warehouse.AppliedLogName, len(rows))
	}
	if _, err := fs.ReadFile("/topics/src/queue.ack"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the replication server wrote a queue ack file (%v)", err)
	}
}

// TestAppliedLogStaysOneRowAcrossRestarts applies a workload through an
// Applier in three runs, each over a reopened warehouse engine and a
// restarted server on the same directories. Afterwards the applied log
// is one row, and a fourth Run's start-up — every op on the topic
// already applied — visits one page of it. Both counts are the same at
// either workload size: the per-op layout earlier builds kept grew by a
// row per op and scanned every page at start-up (the larger workload's
// rows fill several pages).
func TestAppliedLogStaysOneRowAcrossRestarts(t *testing.T) {
	for _, n := range []int{30, 1500} {
		src := newReplSource(t)
		src.workload(t, n, 0)
		encs, seqs := encodedOps(t, src)
		topics, whDir := t.TempDir(), t.TempDir()

		// run restarts the server and the warehouse engine, enqueues
		// encs[lo:hi] (none when lo == hi) and drains them through an
		// Applier. It returns the pool visits the Run made to the applied
		// log and the rows the log holds after it.
		run := func(lo, hi int) (visits uint64, rows int) {
			db, err := engine.Open(whDir, engine.Options{WALSync: wal.SyncFlush, Now: fixedNow})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			wh := warehouse.New(db)
			if err := wh.RegisterReplica("parts", src.schema, "part_id", "last_modified"); err != nil {
				t.Fatal(err)
			}
			applied, err := warehouse.EnsureAppliedLog(wh)
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(ServerConfig{Dir: topics})
			defer srv.Shutdown()
			topic, err := srv.Topic("src")
			if err != nil {
				t.Fatal(err)
			}
			if lo < hi {
				prev := uint64(0)
				if lo > 0 {
					prev = seqs[lo-1]
				}
				if _, err := srv.enqueue(topic, deltaPayload(prev, encs[lo:hi]), obs.TraceContext{}, 0); err != nil {
					t.Fatal(err)
				}
			}
			tbl, err := db.Table(warehouse.AppliedLogName)
			if err != nil {
				t.Fatal(err)
			}
			pool := func() uint64 { st := tbl.Heap().Pool().Stats(); return st.Hits + st.Misses }
			before := pool()
			stop := make(chan struct{})
			close(stop) // drain what the topic holds, then return
			ap := &Applier{Topic: topic, SchemaOf: src.schemaOf,
				Integrator: &warehouse.ParallelIntegrator{W: wh, Workers: 4, Applied: applied}}
			if err := ap.Run(stop); err != nil {
				t.Fatal(err)
			}
			visits = pool() - before
			if err := db.ScanTable(nil, warehouse.AppliedLogName, func(catalog.Tuple) error { rows++; return nil }); err != nil {
				t.Fatal(err)
			}
			if high, err := applied.MaxSeq(); err != nil || (hi > 0 && high != seqs[hi-1]) {
				t.Fatalf("n=%d: high-water seq %d (%v) after applying through op %d", n, high, err, hi)
			}
			return visits, rows
		}
		third := len(encs) / 3
		run(0, third)
		run(third, 2*third)
		run(2*third, len(encs))
		if visits, rows := run(len(encs), len(encs)); visits != 1 || rows != 1 {
			t.Fatalf("%d ops: the applied log holds %d rows, and a Run's start-up visited %d of its pages; want 1 and 1",
				len(encs), rows, visits)
		}
	}
}

// TestApplierNeedsAppliedLog: the applier keeps no consumer position of
// its own, so Run refuses an integrator without an AppliedLog.
func TestApplierNeedsAppliedLog(t *testing.T) {
	src := newReplSource(t)
	wh := newReplWarehouse(t, src.schema)
	srv := NewServer(ServerConfig{Dir: t.TempDir()})
	defer srv.Shutdown()
	topic, err := srv.Topic("src")
	if err != nil {
		t.Fatal(err)
	}
	ap := &Applier{Topic: topic, Integrator: &warehouse.ParallelIntegrator{W: wh.wh}}
	if err := ap.Run(make(chan struct{})); !errors.Is(err, ErrNoAppliedLog) {
		t.Fatalf("Run without an AppliedLog = %v, want ErrNoAppliedLog", err)
	}
}

// TestConcurrentHellosResolveReplicaOnce sends HELLOs for one source on
// many connections at once. Replica is called exactly once, and the
// handshakes negotiate the bootstrap on the same Bootstrapper the
// topic's applier runs.
func TestConcurrentHellosResolveReplicaOnce(t *testing.T) {
	src := newReplSource(t)
	wh := newReplWarehouse(t, src.schema)
	replica, err := NewReplica(wh.wh, "src", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	nw := fault.NewNet(fault.NetProfile{Seed: 14})
	srv := startServer(t, nw, ServerConfig{
		Dir: t.TempDir(),
		Replica: func(string) (*Replica, error) {
			calls.Add(1)
			time.Sleep(20 * time.Millisecond) // widen the race
			return replica, nil
		},
	})

	const conns = 8
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := nw.Dial()
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			// Base 5 is past the empty topic: the handshake must bootstrap.
			if err := WriteFrame(c, FrameHello, 0, helloPayload("src", 5, 0)); err != nil {
				errs <- err
				return
			}
			typ, _, payload, err := ReadFrame(c)
			if err != nil {
				errs <- err
				return
			}
			if typ != FrameWelcome {
				t.Errorf("got %s, want WELCOME", frameName(typ))
				return
			}
			if _, mode, _, _, err := parseWelcome(payload); err != nil || mode != ModeBootstrap {
				t.Errorf("WELCOME mode %d, %v; want bootstrap", mode, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("Replica called %d times for one source", n)
	}
	topic, err := srv.Topic("src")
	if err != nil {
		t.Fatal(err)
	}
	if topic.replica != replica {
		t.Fatal("the topic holds a different Replica than the one resolved")
	}
	if !replica.Bootstrap.Active() {
		t.Fatal("the handshakes did not negotiate on the topic's Bootstrapper")
	}
}
