// Package simcrash is a randomized crash-consistency harness for the
// whole delta pipeline: source engine (WAL + heap + catalog), op-delta
// capture into a file log, queue shipping, and warehouse replay.
//
// One Run is two passes over the same seeded workload:
//
//  1. A clean pass on a fresh fault.SimFS counts every mutating
//     filesystem operation the workload performs and sanity-checks the
//     no-crash pipeline end to end (warehouse == source).
//  2. A crash pass replays the identical workload with a crash
//     scheduled at one operation sampled from [1, total]. The "process"
//     dies there (a panic unwound by fault.RunToCrash), the disk
//     resolves to a power-loss image (durable prefix semantics), and
//     the harness reboots: it reopens the engine through recovery,
//     rescans WAL/archive/op log/queue, resumes shipping, rebuilds the
//     warehouse, and checks the invariants below.
//
// Invariants verified after the crash:
//
//   - Committed transactions are durable: every transaction whose
//     Commit returned before the crash is present in the recovered
//     table, byte for byte.
//   - Losers are undone: transactions still running, rolling back, or
//     aborted at crash time leave no trace.
//   - The one in-doubt transaction (crash inside Commit) lands on
//     either side, atomically — never partially.
//   - WAL and archive segments are scannable to the last complete
//     record; torn tails appear only at the very end.
//   - The op log holds exactly the ops of committed transactions (in
//     sequence order), except that the in-doubt transaction's batch may
//     be missing or a prefix (the documented file-log commit gap); if
//     any of its ops did reach the log, the transaction must be
//     committed in the source.
//   - The queue holds a durable prefix of the shipped messages, every
//     complete frame CRC-clean; the ack position is one the consumer
//     actually reached.
//   - After resumed shipping and a from-scratch replay with
//     deduplication by sequence number, the warehouse state equals the
//     value-delta ground truth of the ops that survived in the log.
//
// Everything is deterministic per seed: same seed, same workload, same
// operation count, same crash point, same verdict.
package simcrash

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/opdelta"
	"opdelta/internal/transport"
	"opdelta/internal/wal"
)

// Config parameterizes one harness run.
type Config struct {
	// Seed drives the workload, the crash point, and the crash-time
	// disk resolution. Runs with equal seeds are identical.
	Seed int64
	// Txns is the number of source transactions. Default 30.
	Txns int
}

// Report summarizes one run. Equal seeds must produce equal Reports —
// the determinism test depends on it.
type Report struct {
	Seed      int64
	Txns      int
	TotalOps  uint64 // mutating fs ops in the clean pass
	CrashOp   uint64 // sampled crash point for the crash pass
	CrashPre  bool   // crash before (vs after) the op applied
	Committed int    // transactions whose Commit returned pre-crash
	Aborted   int    // transactions deliberately rolled back pre-crash
	InDoubt   bool   // a transaction was inside Commit at the crash
	Applied   bool   // the in-doubt transaction survived recovery
	// Digest is a stable fingerprint of the recovered source state, the
	// surviving op-log sequence numbers, and the queue ack position.
	Digest string
}

const (
	dbDir     = "/src/db"
	oplogPath = "/src/oplog"
	queueDir  = "/ship/q"
	tableName = "t"
)

// Run executes the two-pass harness for cfg and returns the crash-pass
// report. A non-nil error is an invariant violation (or a harness bug);
// nil means every invariant held.
func Run(cfg Config) (*Report, error) {
	if cfg.Txns <= 0 {
		cfg.Txns = 30
	}
	// Pass 1: clean run. Counts ops and validates the no-crash pipeline.
	clean := fault.NewSimFS(cfg.Seed)
	tr1 := newTracker()
	if err := runWorkload(clean, cfg.Seed, cfg.Txns, tr1); err != nil {
		return nil, fmt.Errorf("simcrash: clean pass: %w", err)
	}
	total := clean.Ops()
	if total == 0 {
		return nil, fmt.Errorf("simcrash: clean pass performed no fs ops")
	}
	if err := sameState(tr1.warehouse, tr1.base); err != nil {
		return nil, fmt.Errorf("simcrash: clean pass warehouse diverged: %w", err)
	}

	// Pass 2: identical workload, crash at a sampled op.
	rng := rand.New(rand.NewSource(cfg.Seed*0x9E3779B9 + 1))
	rep := &Report{
		Seed:     cfg.Seed,
		Txns:     cfg.Txns,
		TotalOps: total,
		CrashOp:  1 + uint64(rng.Int63n(int64(total))),
		CrashPre: rng.Intn(2) == 0,
	}
	crashFS := fault.NewSimFS(cfg.Seed)
	crashFS.SetScript(&fault.Script{
		CrashOp:     rep.CrashOp,
		CrashBefore: rep.CrashPre,
		// Heap pages are assumed to be written atomically (the engine
		// relies on page-granularity writes, as real DBMS heaps rely on
		// sector atomicity); every log-structured file opts into tears.
		TornTail: func(path string) bool { return !strings.HasSuffix(path, ".heap") },
	})
	tr2 := newTracker()
	var workErr error
	crashed := fault.RunToCrash(func() {
		workErr = runWorkload(crashFS, cfg.Seed, cfg.Txns, tr2)
	})
	if !crashed {
		return nil, fmt.Errorf("simcrash: crash at op %d/%d never fired (workload err: %v)",
			rep.CrashOp, total, workErr)
	}
	rebooted := crashFS.Reboot()
	if err := verify(rebooted, tr2, rep); err != nil {
		return nil, fmt.Errorf("simcrash: seed %d crash@%d (pre=%v): %w",
			cfg.Seed, rep.CrashOp, rep.CrashPre, err)
	}
	return rep, nil
}

// --- ground truth -----------------------------------------------------

type txState int

const (
	txRunning txState = iota
	txCommitting
	txCommitted
	txRollingBack
	txAborted
)

// opRec is the structured ground truth behind one captured statement.
type opRec struct {
	seq  uint64
	kind opdelta.OpKind
	id   int64
	val  string // insert/update value; "" for delete
}

type txnRec struct {
	state  txState
	ops    []opRec
	staged map[int64]string // table state if this txn (and all before) applied
}

// tracker records workload progress from harness memory. It survives
// the simulated crash (the panic unwinds the workload, not the test),
// which is exactly what lets verify() know what the dead process had
// and had not promised.
type tracker struct {
	base map[int64]string // state after all definitely-committed txns
	txns []*txnRec

	shipped    [][]byte         // queue payloads whose Append returned
	shipInFly  []byte           // payload whose Append was in flight at crash
	acks       []int64          // positions whose Ack returned
	ackInFly   int64            // position whose Ack was in flight, -1 none
	warehouse  map[int64]string // clean-pass consumer state
	appliedSeq map[uint64]bool
}

func newTracker() *tracker {
	return &tracker{
		base:       map[int64]string{},
		ackInFly:   -1,
		warehouse:  map[int64]string{},
		appliedSeq: map[uint64]bool{},
	}
}

func (tr *tracker) committedCount() (c, a int) {
	for _, t := range tr.txns {
		switch t.state {
		case txCommitted:
			c++
		case txAborted:
			a++
		}
	}
	return
}

// inDoubt returns the transaction that was inside Commit at the crash,
// if any. The workload is sequential, so there is at most one.
func (tr *tracker) inDoubt() *txnRec {
	for _, t := range tr.txns {
		if t.state == txCommitting {
			return t
		}
	}
	return nil
}

// --- workload ---------------------------------------------------------

func tableSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.TypeInt64, NotNull: true},
		catalog.Column{Name: "val", Type: catalog.TypeString, NotNull: true},
	)
}

func engineOpts(fsys fault.FS) engine.Options {
	clock := int64(0)
	return engine.Options{
		PoolPages:      2, // tiny pool: force evictions, i.e. mid-txn page writes
		WALSync:        wal.SyncFull,
		WALSegmentSize: 4 << 10, // small segments: rotations and archiving under fire
		Archive:        true,
		FS:             fsys,
		Now:            func() time.Time { clock++; return time.Unix(0, clock) },
	}
}

// runWorkload drives the full pipeline on fsys. It either returns nil
// (clean completion), returns an error (harness bug — the workload is
// deterministic and must succeed absent a crash), or never returns
// because the scripted crash panicked out through it.
func runWorkload(fsys *fault.SimFS, seed int64, ntxns int, tr *tracker) error {
	rng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))
	db, err := engine.Open(dbDir, engineOpts(fsys))
	if err != nil {
		return err
	}
	if _, err := db.Table(tableName); err != nil {
		if _, err := db.CreateTable(engine.TableDef{
			Name: tableName, Schema: tableSchema(), PrimaryKey: "id",
		}); err != nil {
			return err
		}
	}
	oplog, err := opdelta.NewFileLogFS(fsys, oplogPath, nil)
	if err != nil {
		return err
	}
	oplog.Sync = true
	cap := &opdelta.Capture{DB: db, Log: oplog}
	q, err := transport.OpenQueueFS(fsys, queueDir)
	if err != nil {
		return err
	}

	nextID := int64(1)
	var shippedSeq uint64
	for i := 0; i < ntxns; i++ {
		t := &txnRec{staged: cloneState(tr.base)}
		tr.txns = append(tr.txns, t)
		tx := db.Begin()
		nops := 1 + rng.Intn(3)
		for j := 0; j < nops; j++ {
			op := chooseOp(rng, t.staged, &nextID)
			// The capture layer assigns the next file-log sequence even
			// when the transaction later aborts; mirror that so ground
			// truth seqs line up with the log (gaps where txns aborted).
			op.seq = cap.Log.(*opdelta.FileLog).Seq() + 1
			t.ops = append(t.ops, op)
			applyOp(t.staged, op)
			if _, err := cap.Exec(tx, op.sql()); err != nil {
				return fmt.Errorf("txn %d op %d: %w", i, j, err)
			}
		}
		if rng.Intn(5) == 0 {
			t.state = txRollingBack
			if err := tx.Abort(); err != nil {
				return err
			}
			t.state = txAborted
		} else {
			t.state = txCommitting
			if err := tx.Commit(); err != nil {
				return err
			}
			t.state = txCommitted
			tr.base = t.staged
		}

		// Ship newly logged ops to the queue.
		ops, err := oplog.Read(shippedSeq)
		if err != nil {
			return err
		}
		for _, op := range ops {
			payload, err := op.Encode(nil, nil)
			if err != nil {
				return err
			}
			tr.shipInFly = payload
			if err := q.Append(payload); err != nil {
				return err
			}
			tr.shipped = append(tr.shipped, payload)
			tr.shipInFly = nil
			shippedSeq = op.Seq
		}

		// Consume a few messages and sometimes ack, like a live
		// warehouse applier that is not in lockstep with the source.
		if rng.Intn(2) == 0 {
			n := 1 + rng.Intn(4)
			for k := 0; k < n; k++ {
				if err := consumeOne(q, tr); err != nil {
					if err == transport.ErrEmpty {
						break
					}
					return err
				}
			}
			if rng.Intn(2) == 0 {
				if err := ackQueue(q, tr); err != nil {
					return err
				}
			}
		}
	}
	// Final drain: the consumer catches all the way up and acks. Both
	// passes run it — the op schedules must be identical so the sampled
	// crash point always lands.
	for {
		if err := consumeOne(q, tr); err != nil {
			if err == transport.ErrEmpty {
				break
			}
			return err
		}
	}
	if err := ackQueue(q, tr); err != nil {
		return err
	}
	if err := q.Close(); err != nil {
		return err
	}
	if err := oplog.Close(); err != nil {
		return err
	}
	return db.Close()
}

func consumeOne(q *transport.Queue, tr *tracker) error {
	msg, err := q.Next()
	if err != nil {
		if err == transport.ErrEmpty {
			return err
		}
		return fmt.Errorf("consume: %w", err)
	}
	op, _, err := opdelta.DecodeOp(msg, nil)
	if err != nil {
		return fmt.Errorf("consume decode: %w", err)
	}
	if !tr.appliedSeq[op.Seq] {
		tr.appliedSeq[op.Seq] = true
		rec, err := parseStmt(op.Stmt)
		if err != nil {
			return err
		}
		applyOp(tr.warehouse, rec)
	}
	return nil
}

func ackQueue(q *transport.Queue, tr *tracker) error {
	tr.ackInFly = q.ReadPos()
	if err := q.Ack(); err != nil {
		return err
	}
	tr.acks = append(tr.acks, tr.ackInFly)
	tr.ackInFly = -1
	return nil
}

// chooseOp picks the next DML against the staged state: mostly inserts,
// with updates and deletes once rows exist. IDs are never reused, so a
// replayed insert cannot collide with a previously deleted key.
func chooseOp(rng *rand.Rand, staged map[int64]string, nextID *int64) opRec {
	roll := rng.Intn(10)
	if len(staged) == 0 || roll < 5 {
		id := *nextID
		*nextID++
		return opRec{kind: opdelta.OpInsert, id: id, val: fmt.Sprintf("v%d_%d", id, rng.Intn(1000))}
	}
	keys := sortedKeys(staged)
	id := keys[rng.Intn(len(keys))]
	if roll < 8 {
		return opRec{kind: opdelta.OpUpdate, id: id, val: fmt.Sprintf("u%d_%d", id, rng.Intn(1000))}
	}
	return opRec{kind: opdelta.OpDelete, id: id}
}

func (o opRec) sql() string {
	switch o.kind {
	case opdelta.OpInsert:
		return fmt.Sprintf("INSERT INTO %s (id, val) VALUES (%d, '%s')", tableName, o.id, o.val)
	case opdelta.OpUpdate:
		return fmt.Sprintf("UPDATE %s SET val = '%s' WHERE id = %d", tableName, o.val, o.id)
	default:
		return fmt.Sprintf("DELETE FROM %s WHERE id = %d", tableName, o.id)
	}
}

func applyOp(state map[int64]string, o opRec) {
	switch o.kind {
	case opdelta.OpInsert, opdelta.OpUpdate:
		state[o.id] = o.val
	default:
		delete(state, o.id)
	}
}

// parseStmt inverts opRec.sql — the warehouse applier's "replay the
// statement" step, restricted to the three shapes this workload emits.
func parseStmt(sql string) (opRec, error) {
	switch {
	case strings.HasPrefix(sql, "INSERT INTO "):
		lp := strings.Index(sql, "VALUES (")
		if lp < 0 {
			return opRec{}, fmt.Errorf("simcrash: bad insert %q", sql)
		}
		body := strings.TrimSuffix(sql[lp+len("VALUES ("):], ")")
		parts := strings.SplitN(body, ", ", 2)
		if len(parts) != 2 {
			return opRec{}, fmt.Errorf("simcrash: bad insert %q", sql)
		}
		id, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return opRec{}, err
		}
		return opRec{kind: opdelta.OpInsert, id: id, val: strings.Trim(parts[1], "'")}, nil
	case strings.HasPrefix(sql, "UPDATE "):
		var id int64
		var val string
		_, err := fmt.Sscanf(sql, "UPDATE "+tableName+" SET val = %q WHERE id = %d", &val, &id)
		if err != nil {
			// Sscanf %q wants double quotes; parse manually.
			setIdx := strings.Index(sql, "SET val = '")
			whereIdx := strings.LastIndex(sql, "' WHERE id = ")
			if setIdx < 0 || whereIdx < 0 {
				return opRec{}, fmt.Errorf("simcrash: bad update %q", sql)
			}
			val = sql[setIdx+len("SET val = '") : whereIdx]
			id, err = strconv.ParseInt(sql[whereIdx+len("' WHERE id = "):], 10, 64)
			if err != nil {
				return opRec{}, err
			}
		}
		return opRec{kind: opdelta.OpUpdate, id: id, val: val}, nil
	case strings.HasPrefix(sql, "DELETE FROM "):
		idx := strings.LastIndex(sql, "WHERE id = ")
		if idx < 0 {
			return opRec{}, fmt.Errorf("simcrash: bad delete %q", sql)
		}
		id, err := strconv.ParseInt(sql[idx+len("WHERE id = "):], 10, 64)
		if err != nil {
			return opRec{}, err
		}
		return opRec{kind: opdelta.OpDelete, id: id}, nil
	}
	return opRec{}, fmt.Errorf("simcrash: unrecognized statement %q", sql)
}

// --- post-crash verification -----------------------------------------

func verify(fsys *fault.SimFS, tr *tracker, rep *Report) error {
	rep.Committed, rep.Aborted = tr.committedCount()
	inDoubt := tr.inDoubt()
	rep.InDoubt = inDoubt != nil

	// 1. Recovery must succeed from any crash image.
	db, err := engine.Open(dbDir, engineOpts(fsys))
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	defer db.Close()

	// 2. Source state: committed txns durable, losers undone, in-doubt
	// atomic.
	actual := map[int64]string{}
	if _, err := db.Table(tableName); err == nil {
		if err := db.ScanTable(nil, tableName, func(row catalog.Tuple) error {
			actual[row[0].Int()] = row[1].Str()
			return nil
		}); err != nil {
			return fmt.Errorf("scan after recovery: %w", err)
		}
	} else if len(tr.txns) > 0 {
		return fmt.Errorf("table lost after recovery but %d transactions ran", len(tr.txns))
	}
	matchesBase := sameState(actual, tr.base) == nil
	matchesDoubt := inDoubt != nil && sameState(actual, inDoubt.staged) == nil
	// A txn that inserts a row and deletes it again stages the same
	// state it started from; the table alone then cannot reveal whether
	// the in-doubt commit applied.
	netZero := inDoubt != nil && sameState(tr.base, inDoubt.staged) == nil
	switch {
	case matchesBase:
		rep.Applied = false
	case matchesDoubt:
		rep.Applied = true
	default:
		detail := sameState(actual, tr.base)
		return fmt.Errorf("recovered state matches neither commit boundary: %v", detail)
	}

	// 3. WAL and archive are scannable to the last complete record.
	if _, err := wal.ReadAllFS(fsys, dbDir+"/wal"); err != nil {
		return fmt.Errorf("wal unscannable: %w", err)
	}
	if _, err := wal.ReadAllFS(fsys, dbDir+"/archive"); err != nil {
		return fmt.Errorf("archive unscannable: %w", err)
	}

	// 4. Op log: exactly the committed ops, plus at most a prefix of the
	// in-doubt batch; any surviving in-doubt op implies the txn
	// committed in the source.
	oplog, err := opdelta.NewFileLogFS(fsys, oplogPath, nil)
	if err != nil {
		return fmt.Errorf("oplog reopen: %w", err)
	}
	ops, err := oplog.Read(0)
	if err != nil {
		return fmt.Errorf("oplog read: %w", err)
	}
	oplog.Close()
	var want []opRec
	for _, t := range tr.txns {
		if t.state == txCommitted {
			want = append(want, t.ops...)
		}
	}
	n := len(want)
	if len(ops) < n {
		return fmt.Errorf("oplog lost committed ops: have %d, want >= %d", len(ops), n)
	}
	extra := ops[n:]
	if inDoubt == nil && len(extra) > 0 {
		return fmt.Errorf("oplog has %d ops beyond committed with no in-doubt txn", len(extra))
	}
	if inDoubt != nil {
		if len(extra) > len(inDoubt.ops) {
			return fmt.Errorf("oplog has %d in-doubt ops, txn only captured %d", len(extra), len(inDoubt.ops))
		}
		if len(extra) > 0 && !rep.Applied && !netZero {
			return fmt.Errorf("oplog holds ops of an in-doubt txn the source did not commit")
		}
		want = append(want, inDoubt.ops[:len(extra)]...)
	}
	seqs := make([]uint64, 0, len(ops))
	for i, op := range ops {
		rec, err := parseStmt(op.Stmt)
		if err != nil {
			return fmt.Errorf("oplog op %d: %w", i, err)
		}
		w := want[i]
		if op.Seq != w.seq || rec.kind != w.kind || rec.id != w.id || rec.val != w.val {
			return fmt.Errorf("oplog op %d mismatch: got seq=%d %v id=%d val=%q, want seq=%d %v id=%d val=%q",
				i, op.Seq, rec.kind, rec.id, rec.val, w.seq, w.kind, w.id, w.val)
		}
		seqs = append(seqs, op.Seq)
	}

	// 5. Queue: a durable prefix of the shipped frames, CRC-clean, with
	// at most a torn tail; the ack position is one the consumer reached.
	frames, err := readQueueFrames(fsys)
	if err != nil {
		return err
	}
	if len(frames) > len(tr.shipped)+1 {
		return fmt.Errorf("queue has %d frames, only %d appends attempted", len(frames), len(tr.shipped)+1)
	}
	for i, fr := range frames {
		var want []byte
		if i < len(tr.shipped) {
			want = tr.shipped[i]
		} else if tr.shipInFly != nil {
			want = tr.shipInFly
		} else {
			return fmt.Errorf("queue frame %d beyond every attempted append", i)
		}
		if string(fr) != string(want) {
			return fmt.Errorf("queue frame %d differs from shipped payload", i)
		}
	}
	if len(frames) < len(tr.shipped) {
		return fmt.Errorf("queue lost acknowledged appends: %d frames < %d durable ships",
			len(frames), len(tr.shipped))
	}
	ackPos, err := readAckPos(fsys)
	if err != nil {
		return err
	}
	okAck := ackPos == 0
	for _, a := range tr.acks {
		if ackPos == a {
			okAck = true
		}
	}
	if tr.ackInFly >= 0 && ackPos == tr.ackInFly {
		okAck = true
	}
	if !okAck {
		return fmt.Errorf("queue ack position %d was never a consumer position (acks %v, in-flight %d)",
			ackPos, tr.acks, tr.ackInFly)
	}

	// 6. Resume shipping and rebuild the warehouse from scratch: replay
	// must reproduce the value-delta ground truth of the surviving ops.
	q, err := transport.OpenQueueFS(fsys, queueDir)
	if err != nil {
		return fmt.Errorf("queue reopen: %w", err)
	}
	inQueue := map[uint64]bool{}
	for _, fr := range frames {
		op, _, err := opdelta.DecodeOp(fr, nil)
		if err != nil {
			return fmt.Errorf("queue frame decode: %w", err)
		}
		inQueue[op.Seq] = true
	}
	for _, op := range ops {
		if inQueue[op.Seq] {
			continue
		}
		payload, err := op.Encode(nil, nil)
		if err != nil {
			return err
		}
		if err := q.Append(payload); err != nil {
			return fmt.Errorf("reship: %w", err)
		}
	}
	q.Close()
	finalFrames, err := readQueueFrames(fsys)
	if err != nil {
		return err
	}
	warehouse := map[int64]string{}
	applied := map[uint64]bool{}
	for _, fr := range finalFrames {
		op, _, err := opdelta.DecodeOp(fr, nil)
		if err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		if applied[op.Seq] {
			continue
		}
		applied[op.Seq] = true
		rec, err := parseStmt(op.Stmt)
		if err != nil {
			return err
		}
		applyOp(warehouse, rec)
	}
	expected := map[int64]string{}
	for _, w := range want {
		applyOp(expected, w)
	}
	if err := sameState(warehouse, expected); err != nil {
		return fmt.Errorf("warehouse replay diverged from ground truth: %w", err)
	}
	// When the op log is complete (no commit gap), the warehouse must
	// equal the recovered source exactly.
	if inDoubt == nil || (rep.Applied && len(extra) == len(inDoubt.ops)) {
		if err := sameState(warehouse, actual); err != nil {
			return fmt.Errorf("warehouse != recovered source with complete op log: %w", err)
		}
	}

	rep.Digest = digest(actual, seqs, ackPos)
	return nil
}

// readQueueFrames parses queue.dat from the durable image: every
// complete frame must be CRC-clean; an incomplete frame may exist only
// at the very end (the torn tail of an in-flight append).
func readQueueFrames(fsys fault.FS) ([][]byte, error) {
	data, err := fsys.ReadFile(queueDir + "/queue.dat")
	if err != nil {
		return nil, nil // queue never created before the crash
	}
	var frames [][]byte
	pos := 0
	for pos < len(data) {
		if pos+8 > len(data) {
			break // torn header at tail
		}
		l := binary.LittleEndian.Uint32(data[pos : pos+4])
		want := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		if pos+8+int(l) > len(data) {
			break // torn payload at tail
		}
		msg := data[pos+8 : pos+8+int(l)]
		if crc32.Checksum(msg, crc32.MakeTable(crc32.Castagnoli)) != want {
			return nil, fmt.Errorf("queue frame at offset %d fails CRC", pos)
		}
		frames = append(frames, msg)
		pos += 8 + int(l)
	}
	return frames, nil
}

func readAckPos(fsys fault.FS) (int64, error) {
	raw, err := fsys.ReadFile(queueDir + "/queue.ack")
	if err != nil {
		return 0, nil
	}
	if len(raw) != 8 {
		return 0, fmt.Errorf("queue ack file has %d bytes, want 8 (torn publish?)", len(raw))
	}
	return int64(binary.LittleEndian.Uint64(raw)), nil
}

func cloneState(m map[int64]string) map[int64]string {
	out := make(map[int64]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sortedKeys(m map[int64]string) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sameState(got, want map[int64]string) error {
	for k, v := range want {
		if gv, ok := got[k]; !ok {
			return fmt.Errorf("missing row id=%d (want val=%q)", k, v)
		} else if gv != v {
			return fmt.Errorf("row id=%d: got val=%q, want %q", k, gv, v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("phantom row id=%d val=%q", k, got[k])
		}
	}
	return nil
}

func digest(state map[int64]string, seqs []uint64, ackPos int64) string {
	var b strings.Builder
	for _, k := range sortedKeys(state) {
		fmt.Fprintf(&b, "%d=%s;", k, state[k])
	}
	fmt.Fprintf(&b, "|seqs=")
	for _, s := range seqs {
		fmt.Fprintf(&b, "%d,", s)
	}
	fmt.Fprintf(&b, "|ack=%d", ackPos)
	return b.String()
}
