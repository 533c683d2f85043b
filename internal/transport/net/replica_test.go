package netrepl

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opdelta/internal/fault"
	"opdelta/internal/keyset"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
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
// In the gap case the warehouse already holds every op but one, k, that
// no later op touches — a state the parallel integrator's out-of-order
// group commits can leave behind at a crash. AppliedLog.MaxSeq already
// reads the topic's last seq, so an applier that resumed there would
// never apply k; the restarted one must apply it, and only it, once.
func TestRestartedServerAppliesRecoveredBacklog(t *testing.T) {
	for _, gap := range []bool{false, true} {
		name := "empty warehouse"
		if gap {
			name = "gap below MaxSeq"
		}
		t.Run(name, func(t *testing.T) { testRestartedServerAppliesRecoveredBacklog(t, gap) })
	}
}

func testRestartedServerAppliesRecoveredBacklog(t *testing.T, gap bool) {
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
	missing := want // the op the restarted server must apply last
	if gap {
		k := lastUntouchedOp(t, src, ops)
		missing = ops[k].Seq
		rest := append(append([]*opdelta.Op(nil), ops[:k]...), ops[k+1:]...)
		if _, err := replica.Integrator.Apply(rest); err != nil {
			t.Fatal(err)
		}
	}
	applied := replica.Integrator.Applied
	if got, _ := applied.MaxSeq(); gap != (got == want) {
		t.Fatalf("applied MaxSeq = %d before the restart (topic ends at %d)", got, want)
	}
	srv2 := startServer(t, fault.NewNet(fault.NetProfile{Seed: 13}), ServerConfig{
		Dir: "/topics", FS: fs,
		Replica: func(string) (*Replica, error) { return replica, nil },
	})
	waitFor(t, 10*time.Second, fmt.Sprintf("op %d applied", missing), func() bool {
		seen, err := applied.Seen(nil, missing)
		return err == nil && seen
	})
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !sameRows(tableRows(t, src.db, "parts"), tableRows(t, wh.db, "parts")) {
		t.Fatal("replica differs from the source after applying the recovered backlog")
	}
	// One AppliedLog row per op; the ops after the gap reach the
	// integrator again and are skipped.
	var opSeqs []uint64
	var redelivered float64
	for _, op := range ops {
		opSeqs = append(opSeqs, op.Seq)
		if gap && op.Seq > missing {
			redelivered++
		}
	}
	if seqs, err := applied.Seqs(); err != nil || !slices.Equal(seqs, opSeqs) {
		t.Fatalf("AppliedLog holds %v (%v), want one row per op: %v", seqs, err, opSeqs)
	}
	dup := wh.db.Obs().Snapshot().Get("warehouse_apply_skipped_duplicate_total", obs.L("integrator", "parallel"))
	if dup == nil || dup.Value != redelivered {
		t.Fatalf("skipped duplicates = %+v, want %v", dup, redelivered)
	}
	if _, err := fs.ReadFile("/topics/src/queue.ack"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the replication server wrote a queue ack file (%v)", err)
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

// lastUntouchedOp returns the index of the latest op below the last one
// whose key no later op touches — leaving it out of an apply is a state
// the parallel integrator can commit.
func lastUntouchedOp(t *testing.T, src *replSource, ops []*opdelta.Op) int {
	t.Helper()
	fps := make([]keyset.Footprint, len(ops))
	for i, op := range ops {
		stmt, err := op.Statement()
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = keyset.StatementFootprint(stmt, src.schema, "part_id")
	}
	for k := len(ops) - 2; k >= 0 && k >= len(ops)-applyBatchOps; k-- {
		touched := fps[k].Whole
		for _, fp := range fps[k+1:] {
			touched = touched || fp.Overlaps(fps[k])
		}
		if !touched {
			return k
		}
	}
	t.Fatal("every op among the last batch shares a key with a later one")
	return 0
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
