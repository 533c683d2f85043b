package netrepl

import (
	"fmt"
	"net"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/warehouse"
)

// bootAck is one CHUNK_ACK the Bootstrapper emitted, parsed.
type bootAck struct {
	chunkID, round uint64
	status         byte
	keys           [][]byte
}

// bootRig wires a Bootstrapper to a real warehouse with a captured ack
// sink, so tests can hand-feed watermark/chunk frames and applied-op
// batches without a network or shipper in the loop.
type bootRig struct {
	wh   *replWarehouse
	blog *warehouse.BootstrapLog
	boot *Bootstrapper
	reg  *obs.Registry
	acks []bootAck
}

func newBootRig(t *testing.T, schema *catalog.Schema, broken bool) *bootRig {
	t.Helper()
	wh := newReplWarehouse(t, schema)
	blog, err := warehouse.EnsureBootstrapLog(wh.wh)
	if err != nil {
		t.Fatal(err)
	}
	r := &bootRig{wh: wh, blog: blog, reg: obs.NewRegistry()}
	r.boot = &Bootstrapper{
		Log: blog, Applied: wh.integ.Applied,
		Source: "src", Obs: r.reg, BrokenChunkWins: broken,
	}
	return r
}

func (r *bootRig) send(typ, flags byte, payload []byte) error {
	if typ != FrameChunkAck {
		return fmt.Errorf("unexpected frame %s from bootstrapper", frameName(typ))
	}
	chunkID, round, status, keys, err := parseChunkAck(payload)
	if err != nil {
		return err
	}
	r.acks = append(r.acks, bootAck{chunkID: chunkID, round: round, status: status, keys: keys})
	return nil
}

func (r *bootRig) counter(t *testing.T, name string) uint64 {
	t.Helper()
	return r.reg.Counter(name, obs.L("source", "src")).Value()
}

// rowsInOrder scans a table into encoded tuples plus the encoded PK of
// the last row, in PK order — what a snapshot chunk read returns.
func rowsInOrder(t *testing.T, src *replSource) (rows [][]byte, lastKey []byte) {
	t.Helper()
	tbl, err := src.db.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	codec := opdelta.NewKeyCodec(tbl.Schema.Column(tbl.PKCol))
	var tuples []catalog.Tuple
	if err := src.db.ScanTable(nil, "parts", func(row catalog.Tuple) error {
		tuples = append(tuples, append(catalog.Tuple(nil), row...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		enc, err := catalog.EncodeTuple(nil, tbl.Schema, tu)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, enc)
		lastKey, err = codec.Encode(tu[tbl.PKCol])
		if err != nil {
			t.Fatal(err)
		}
	}
	return rows, lastKey
}

// rowsForKeys re-reads exactly the given part_ids — a chase round's
// payload: keys deleted at the source simply come back absent.
func rowsForKeys(t *testing.T, src *replSource, ids ...int) [][]byte {
	t.Helper()
	tbl, err := src.db.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]byte
	for _, id := range ids {
		if err := src.db.ScanTable(nil, "parts", func(row catalog.Tuple) error {
			if fmt.Sprint(row[tbl.PKCol].Int()) == fmt.Sprint(id) {
				enc, err := catalog.EncodeTuple(nil, tbl.Schema, row)
				if err != nil {
					return err
				}
				rows = append(rows, enc)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// TestBootstrapReconciliationUnit pins the chunk-vs-delta rule at the
// frame level: a chunk read before a concurrent UPDATE (key 1) and
// DELETE (key 3) commits inside its watermark window must drop both
// rows and chase them, and the clean chase round must land the fresh
// row for key 1 while leaving key 3 dead — no lost update, no
// resurrection. A delta whose op seq is below the chunk's low watermark
// (key 2's insert) must NOT invalidate its row.
func TestBootstrapReconciliationUnit(t *testing.T) {
	src := newReplSource(t)
	for id := 1; id <= 3; id++ {
		if _, err := src.db.Exec(nil, fmt.Sprintf(
			`INSERT INTO parts (part_id, status, qty) VALUES (%d, 'new', %d)`, id, id)); err != nil {
			t.Fatal(err)
		}
	}
	staleRows, lastKey := rowsInOrder(t, src) // chunk as of the read: all three rows, pre-update

	// The concurrent writes the chunk read raced with, committed after
	// the read but inside the watermark window (seqs 11, 12 > low 5).
	if _, err := src.db.Exec(nil, `UPDATE parts SET status = 'hot' WHERE part_id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := src.db.Exec(nil, `DELETE FROM parts WHERE part_id = 3`); err != nil {
		t.Fatal(err)
	}

	rig := newBootRig(t, src.schema, false)
	mode, prog, err := rig.boot.Handshake(10, 0, rig.send)
	if err != nil {
		t.Fatal(err)
	}
	if mode != ModeBootstrap || len(prog) != 0 {
		t.Fatalf("handshake: mode=%d progress=%v, want fresh bootstrap", mode, prog)
	}

	// Round 1: low=5, stale rows, high=12.
	deliver := func(typ byte, payload []byte) {
		t.Helper()
		if err := rig.boot.Deliver(typ, payload, obs.TraceContext{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	deliver(FrameWatermark, watermarkPayload(wmLow, 1, 1, 5))
	deliver(FrameSnapshotChunk, chunkPayload(1, 1, chunkFinal|chunkRunDone, "parts", lastKey, staleRows))
	deliver(FrameWatermark, watermarkPayload(wmHigh, 1, 1, 12))

	// The applier lands the window's deltas and reports them.
	ops := []*opdelta.Op{
		{Seq: 11, Table: "parts", Stmt: `UPDATE parts SET status = 'hot' WHERE part_id = 1`},
		{Seq: 12, Table: "parts", Stmt: `DELETE FROM parts WHERE part_id = 3`},
	}
	if err := rig.boot.Observe(ops); err != nil {
		t.Fatal(err)
	}

	if len(rig.acks) != 1 {
		t.Fatalf("got %d acks after round 1, want 1 resend", len(rig.acks))
	}
	if a := rig.acks[0]; a.status != chunkResend || a.chunkID != 1 || a.round != 1 || len(a.keys) != 2 {
		t.Fatalf("round 1 ack = %+v, want resend for 2 keys", a)
	}
	if got := rig.counter(t, "netrepl_bootstrap_dropped_rows_total"); got != 2 {
		t.Fatalf("dropped rows = %d, want 2 (stale update + resurrection)", got)
	}
	if got := rig.counter(t, "netrepl_bootstrap_chases_total"); got != 1 {
		t.Fatalf("chases = %d, want 1", got)
	}

	// Round 2 (the chase): re-read keys 1 and 3 under a fresh window.
	// Key 3 is deleted at the source, so the chase carries only key 1's
	// fresh row; no delta lands inside this window, so it's clean.
	chaseRows := rowsForKeys(t, src, 1, 3)
	if len(chaseRows) != 1 {
		t.Fatalf("chase re-read returned %d rows, want 1 (key 3 is deleted)", len(chaseRows))
	}
	deliver(FrameWatermark, watermarkPayload(wmLow, 1, 2, 12))
	deliver(FrameSnapshotChunk, chunkPayload(1, 2, chunkFinal|chunkRunDone|chunkChase, "parts", lastKey, chaseRows))
	deliver(FrameWatermark, watermarkPayload(wmHigh, 1, 2, 12))
	if err := rig.boot.Observe(nil); err != nil {
		t.Fatal(err)
	}

	if len(rig.acks) != 2 {
		t.Fatalf("got %d acks after round 2, want 2", len(rig.acks))
	}
	if a := rig.acks[1]; a.status != chunkDone || a.round != 2 {
		t.Fatalf("round 2 ack = %+v, want done", a)
	}
	if rig.boot.Active() {
		t.Fatal("bootstrapper still active after the run-done chunk committed")
	}
	meta, err := rig.blog.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Exists || !meta.Done || meta.Base != 10 {
		t.Fatalf("bootstrap meta = %+v, want done at base 10", meta)
	}

	// The replica must equal the post-write source: key 1 hot, key 2
	// intact, key 3 gone.
	if !sameRows(tableRows(t, src.db, "parts"), tableRows(t, rig.wh.db, "parts")) {
		t.Fatalf("replica diverged:\nsource    %v\nwarehouse %v",
			tableRows(t, src.db, "parts"), tableRows(t, rig.wh.db, "parts"))
	}
	if got := rig.counter(t, "netrepl_bootstrap_chunks_total"); got != 1 {
		t.Fatalf("chunks committed = %d, want 1", got)
	}
	if got := rig.counter(t, "netrepl_bootstrap_rows_total"); got != 2 {
		t.Fatalf("rows committed = %d, want 2", got)
	}
}

// TestBootstrapReconciliationUnitBroken keeps the failure mode
// demonstrable, à la TestPreFixOutOfOrderLoss: with the delta-wins rule
// disabled, the same frames commit the stale chunk verbatim on round 1
// — the update to key 1 is lost and deleted key 3 is resurrected.
func TestBootstrapReconciliationUnitBroken(t *testing.T) {
	src := newReplSource(t)
	for id := 1; id <= 3; id++ {
		if _, err := src.db.Exec(nil, fmt.Sprintf(
			`INSERT INTO parts (part_id, status, qty) VALUES (%d, 'new', %d)`, id, id)); err != nil {
			t.Fatal(err)
		}
	}
	staleRows, lastKey := rowsInOrder(t, src)
	if _, err := src.db.Exec(nil, `UPDATE parts SET status = 'hot' WHERE part_id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := src.db.Exec(nil, `DELETE FROM parts WHERE part_id = 3`); err != nil {
		t.Fatal(err)
	}

	rig := newBootRig(t, src.schema, true)
	if mode, _, err := rig.boot.Handshake(10, 0, rig.send); err != nil || mode != ModeBootstrap {
		t.Fatalf("handshake: mode=%d err=%v", mode, err)
	}
	for _, f := range []struct {
		typ     byte
		payload []byte
	}{
		{FrameWatermark, watermarkPayload(wmLow, 1, 1, 5)},
		{FrameSnapshotChunk, chunkPayload(1, 1, chunkFinal|chunkRunDone, "parts", lastKey, staleRows)},
		{FrameWatermark, watermarkPayload(wmHigh, 1, 1, 12)},
	} {
		if err := rig.boot.Deliver(f.typ, f.payload, obs.TraceContext{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	ops := []*opdelta.Op{
		{Seq: 11, Table: "parts", Stmt: `UPDATE parts SET status = 'hot' WHERE part_id = 1`},
		{Seq: 12, Table: "parts", Stmt: `DELETE FROM parts WHERE part_id = 3`},
	}
	if err := rig.boot.Observe(ops); err != nil {
		t.Fatal(err)
	}

	if len(rig.acks) != 1 || rig.acks[0].status != chunkDone || rig.acks[0].round != 1 {
		t.Fatalf("broken variant acks = %+v, want an immediate done (no chase)", rig.acks)
	}
	if got := rig.counter(t, "netrepl_bootstrap_rows_total"); got != 3 {
		t.Fatalf("broken variant committed %d rows, want all 3 stale rows", got)
	}
	if sameRows(tableRows(t, src.db, "parts"), tableRows(t, rig.wh.db, "parts")) {
		t.Fatal("broken variant converged; the lost-update/resurrection demonstration is inert")
	}
}

// TestQuietChunkSettlesOnDeliveryWake: with no delta flowing, a chunk
// whose high watermark the applied cursor has already passed gets its
// CHUNK_ACK as soon as its frames are buffered — the connection wakes
// the idle applier after each delivered frame. The second chunk's
// frames follow the first CHUNK_ACK, which the applier sends from its
// idle pass, so by then nothing but the delivery wake can settle it.
func TestQuietChunkSettlesOnDeliveryWake(t *testing.T) {
	src := newReplSource(t)
	src.workload(t, 12, 0)
	ops, err := src.log.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	// The replica has applied every op the source logged; the source
	// then drops its log, so the next HELLO negotiates a bootstrap with
	// the applied cursor already at the last op.
	wh := newReplWarehouse(t, src.schema)
	if _, err := wh.integ.Apply(opdelta.CloneOps(ops)); err != nil {
		t.Fatal(err)
	}
	cursor := ops[len(ops)-1].Seq
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
	defer srv.Shutdown()

	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := WriteFrame(c, FrameHello, 0, helloPayload("src", cursor+1, 0)); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err := ReadFrame(c)
	if err != nil || typ != FrameWelcome {
		t.Fatalf("handshake: %s, %v", frameName(typ), err)
	}
	if _, mode, _, _, err := parseWelcome(payload); err != nil || mode != ModeBootstrap {
		t.Fatalf("welcome mode %d, %v; want a bootstrap", mode, err)
	}

	rows, lastKey := rowsInOrder(t, src)
	half := len(rows) / 2
	tbl, err := src.db.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	mid, err := catalog.DecodeTuple(tbl.Schema, rows[half-1])
	if err != nil {
		t.Fatal(err)
	}
	midKey, err := opdelta.NewKeyCodec(tbl.Schema.Column(tbl.PKCol)).Encode(mid[tbl.PKCol])
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []struct {
		id      uint64
		flags   byte
		lastKey []byte
		rows    [][]byte
	}{
		{1, 0, midKey, rows[:half]},
		{2, chunkFinal | chunkRunDone, lastKey, rows[half:]},
	} {
		for _, f := range []struct {
			typ     byte
			payload []byte
		}{
			{FrameWatermark, watermarkPayload(wmLow, ch.id, 1, cursor)},
			{FrameSnapshotChunk, chunkPayload(ch.id, 1, ch.flags, "parts", ch.lastKey, ch.rows)},
			{FrameWatermark, watermarkPayload(wmHigh, ch.id, 1, cursor)},
		} {
			if err := WriteFrame(c, f.typ, 0, f.payload); err != nil {
				t.Fatal(err)
			}
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		typ, _, payload, err := ReadFrame(c)
		if err != nil || typ != FrameChunkAck {
			t.Fatalf("chunk %d: got %s, %v; want its CHUNK_ACK with no delta after it", ch.id, frameName(typ), err)
		}
		if id, _, status, _, err := parseChunkAck(payload); err != nil || id != ch.id || status != chunkDone {
			t.Fatalf("chunk %d: ack for chunk %d status %d, %v; want done", ch.id, id, status, err)
		}
	}
	if replica.Bootstrap.Active() {
		t.Fatal("bootstrapper still active after the run-done chunk settled")
	}
	if !sameRows(tableRows(t, src.db, "parts"), tableRows(t, wh.db, "parts")) {
		t.Fatalf("replica diverged:\nsource    %v\nwarehouse %v",
			tableRows(t, src.db, "parts"), tableRows(t, wh.db, "parts"))
	}
}
