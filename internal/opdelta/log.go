package opdelta

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/sqlmini"
)

// Log stores captured ops. Two implementations mirror the paper's §4.2
// experiments: TableLog keeps ops in a database table, written inside
// the capturing transaction (fully transactional, higher overhead);
// FileLog appends ops to a flat file at commit time, trading
// transactional coupling for speed ("using a file log could be
// attractive").
type Log interface {
	// Append records op as part of tx (or autonomously when tx is nil).
	// The log assigns op.Seq.
	Append(tx *engine.Tx, op *Op) error
	// Read returns all committed ops with Seq > fromSeq in sequence
	// order, never passing the resolved horizon: an op is returned only
	// once every lower seq has committed or aborted, so a cursor moved
	// to the last returned seq loses nothing to a late commit.
	//
	// The returned ops (and the slice's backing array) are shared with
	// the log's in-memory tail and with every other reader: treat them
	// as read-only. A caller that needs to set a field — Op.Trace, say —
	// works on its own copy (CloneOps).
	Read(fromSeq uint64) ([]*Op, error)
	// Close releases resources.
	Close() error
}

// TableLogName is the capture table used by TableLog.
const TableLogName = "opdelta__log"

// tableLogSchema stores one op per row.
func tableLogSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "o_seq", Type: catalog.TypeInt64, NotNull: true},
		catalog.Column{Name: "o_txn", Type: catalog.TypeInt64, NotNull: true},
		catalog.Column{Name: "o_kind", Type: catalog.TypeString, NotNull: true},
		catalog.Column{Name: "o_table", Type: catalog.TypeString, NotNull: true},
		catalog.Column{Name: "o_stmt", Type: catalog.TypeString, NotNull: true},
		catalog.Column{Name: "o_time", Type: catalog.TypeTime, NotNull: true},
		catalog.Column{Name: "o_hybrid", Type: catalog.TypeBool, NotNull: true},
		catalog.Column{Name: "o_part", Type: catalog.TypeInt64, NotNull: true},
		catalog.Column{Name: "o_before", Type: catalog.TypeBytes}, // encoded hybrid images (chunked)
	)
}

// TableLog stores ops in a table of the source database, inside the
// capturing transaction — an op of an aborted transaction rolls back
// with it. The table is the durable record; reads at the head are
// served from the in-memory committed-op tail (see opTail) and only a
// reader below the tail's floor — after a restart, or one that fell
// behind the eviction budget — goes back to the table, through the
// secondary index on o_seq. One TableLog owns its table: ops appended
// through another instance are invisible to this one's tail.
type TableLog struct {
	DB   *engine.DB
	base atomic.Uint64
	tail opTail

	pmu     sync.Mutex
	pending map[*engine.Tx][]*Op
}

// seqColumn is the op-log column carrying the sequence number, and the
// one NewTableLog indexes.
const seqColumn = "o_seq"

// NewTableLog creates (if needed) the op-log table and its o_seq index
// and returns the log.
func NewTableLog(db *engine.DB) (*TableLog, error) {
	t, err := db.Table(TableLogName)
	if err != nil {
		if t, err = db.CreateTable(engine.TableDef{Name: TableLogName, Schema: tableLogSchema()}); err != nil {
			return nil, err
		}
	}
	indexed := false
	for _, col := range t.SecondaryIndexes() {
		indexed = indexed || col == seqColumn
	}
	if !indexed {
		if err := db.CreateSecondaryIndex(TableLogName, seqColumn); err != nil {
			return nil, err
		}
	}
	l := &TableLog{DB: db, pending: make(map[*engine.Tx][]*Op)}
	maxSeq, base, err := l.recoverSeqs()
	if err != nil {
		return nil, err
	}
	l.base.Store(base)
	l.tail.open(maxSeq, nil)
	return l, nil
}

// recoverSeqs finds the highest seq in the table and the highest BASE
// marker from the two ends of the o_seq index, without a scan. BASE
// markers survive truncation and pin both the sequence floor and the
// truncation boundary across a reopen; Truncate deletes every row at or
// below the marker it writes and never writes one past the head, so
// markers sit below every op.
func (l *TableLog) recoverSeqs() (maxSeq, base uint64, err error) {
	top, err := l.DB.IndexEdge(nil, TableLogName, seqColumn, true, 1)
	if err != nil || len(top) == 0 {
		return 0, 0, err
	}
	maxSeq = uint64(top[0][0].Int())
	for n := 2; ; n *= 2 {
		rows, err := l.DB.IndexEdge(nil, TableLogName, seqColumn, false, n)
		if err != nil {
			return 0, 0, err
		}
		markers := 0
		for markers < len(rows) && rows[markers][2].Str() == "BASE" {
			base = max(base, uint64(rows[markers][0].Int()))
			markers++
		}
		if markers < n {
			return maxSeq, base, nil // reached an op row, or the end of the index
		}
	}
}

// Seq returns the last sequence number assigned (0 before any append).
func (l *TableLog) Seq() uint64 { return l.tail.seq.Load() }

// Base returns the truncation boundary: ops with Seq at or below it
// have been deleted from the log and can no longer be replayed.
func (l *TableLog) Base() uint64 { return l.base.Load() }

// Horizon reports the resolved horizon — every op with Seq at or below
// it has either committed or aborted — and the highest committed seq.
// The snapshot reader brackets chunk reads with these watermarks.
func (l *TableLog) Horizon() (resolved, maxCommitted uint64) {
	return l.tail.horizon()
}

func (l *TableLog) resolveTx(tx *engine.Tx, committed bool) {
	l.pmu.Lock()
	ops := l.pending[tx]
	delete(l.pending, tx)
	l.pmu.Unlock()
	l.tail.resolve(committed, ops...)
}

// beforeChunk bounds the per-row before-image payload so op rows stay
// within page capacity; larger hybrid payloads continue in extra rows
// (the engine has no LOB column type, so the log plays the role of one).
const beforeChunk = 6 << 10

// Append writes the op row (plus continuation rows for large hybrid
// payloads) within tx. The op reaches readers from tx's commit hook —
// after the commit record is durable — and is shared with them from
// then on: the caller must not modify it after Append.
func (l *TableLog) Append(tx *engine.Tx, op *Op) error {
	op.Seq = l.tail.assign()
	if err := l.appendRows(tx, op); err != nil {
		l.tail.resolve(false, op)
		return err
	}
	if tx == nil {
		l.tail.resolve(true, op)
		return nil
	}
	l.pmu.Lock()
	ops := l.pending[tx]
	first := ops == nil
	l.pending[tx] = append(ops, op)
	l.pmu.Unlock()
	if first {
		tx.OnCommit(func() error { l.resolveTx(tx, true); return nil })
		tx.OnAbort(func() { l.resolveTx(tx, false) })
	}
	return nil
}

func (l *TableLog) appendRows(tx *engine.Tx, op *Op) error {
	var beforeEnc []byte
	if len(op.Before) > 0 {
		t, err := l.DB.Table(op.Table)
		if err != nil {
			return err
		}
		for _, img := range op.Before {
			enc, err := catalog.EncodeTuple(nil, t.Schema, img)
			if err != nil {
				return err
			}
			beforeEnc = binary.AppendUvarint(beforeEnc, uint64(len(enc)))
			beforeEnc = append(beforeEnc, enc...)
		}
	}
	chunk := func(part int) catalog.Value {
		lo := part * beforeChunk
		if lo >= len(beforeEnc) {
			return catalog.NewNull(catalog.TypeBytes)
		}
		hi := lo + beforeChunk
		if hi > len(beforeEnc) {
			hi = len(beforeEnc)
		}
		return catalog.NewBytes(beforeEnc[lo:hi])
	}
	nparts := 1
	if len(beforeEnc) > beforeChunk {
		nparts = (len(beforeEnc) + beforeChunk - 1) / beforeChunk
	}
	for part := 0; part < nparts; part++ {
		stmt, kind := op.Stmt, op.Kind.String()
		if part > 0 {
			stmt, kind = "", "CONT"
		}
		row := catalog.Tuple{
			catalog.NewInt(int64(op.Seq)),
			catalog.NewInt(int64(op.Txn)),
			catalog.NewString(kind),
			catalog.NewString(op.Table),
			catalog.NewString(stmt),
			catalog.NewTime(op.Time),
			catalog.NewBool(op.Hybrid),
			catalog.NewInt(int64(part)),
			chunk(part),
		}
		if err := l.DB.InsertTuple(tx, TableLogName, row); err != nil {
			return err
		}
	}
	return nil
}

// Read returns committed ops with Seq > fromSeq in order. At or above
// the tail's floor that is a binary search and a sub-slice of the tail;
// below it the ops in (fromSeq, floor] are read back from the table
// through the o_seq index and the tail is appended to them.
func (l *TableLog) Read(fromSeq uint64) ([]*Op, error) {
	ops, floor := l.tail.read(fromSeq)
	if fromSeq >= floor {
		return ops, nil
	}
	cold, err := l.readRows(fromSeq, floor)
	if err != nil {
		return nil, err
	}
	return append(cold, ops...), nil
}

// readRows decodes the ops with from < Seq <= upto from the table,
// reassembling chunked hybrid payloads. The o_seq index delivers rows
// in seq order, an op's continuation rows next to its head row, so one
// op is assembled at a time. upto never exceeds the tail's floor, which
// never exceeds the resolved horizon: every row in range is committed.
func (l *TableLog) readRows(from, upto uint64) ([]*Op, error) {
	seqCol := &sqlmini.ColRef{Name: seqColumn}
	where := &sqlmini.Binary{Op: sqlmini.OpAnd,
		L: &sqlmini.Binary{Op: sqlmini.OpGt, L: seqCol, R: &sqlmini.Literal{Val: catalog.NewInt(int64(from))}},
		R: &sqlmini.Binary{Op: sqlmini.OpLe, L: seqCol, R: &sqlmini.Literal{Val: catalog.NewInt(int64(upto))}},
	}
	var (
		out    []*Op
		cur    *Op            // op being assembled; nil before the first row
		chunks map[int][]byte // cur's before-image payload by part
	)
	finish := func() error {
		if cur == nil {
			return nil
		}
		if cur.Kind == OpInvalid {
			return fmt.Errorf("opdelta: op %d has continuation rows but no head row", cur.Seq)
		}
		if err := l.decodeBefore(cur, chunks); err != nil {
			return err
		}
		out = append(out, cur)
		return nil
	}
	_, err := l.DB.IterateSelect(nil, &sqlmini.Select{Table: TableLogName, Where: where}, func(row catalog.Tuple) error {
		kind := row[2].Str()
		if kind == "BASE" {
			return nil
		}
		if seq := uint64(row[0].Int()); cur == nil || cur.Seq != seq {
			if err := finish(); err != nil {
				return err
			}
			cur, chunks = &Op{Seq: seq}, nil
		}
		if !row[8].IsNull() {
			if chunks == nil {
				chunks = make(map[int][]byte)
			}
			chunks[int(row[7].Int())] = row[8].BytesVal()
		}
		if kind == "CONT" {
			return nil // continuation rows carry only payload
		}
		cur.Txn = uint64(row[1].Int())
		cur.Table = row[3].Str()
		cur.Stmt = row[4].Str()
		cur.Time = row[5].Time()
		cur.Hybrid = row[6].Bool()
		switch kind {
		case "INSERT":
			cur.Kind = OpInsert
		case "UPDATE":
			cur.Kind = OpUpdate
		case "DELETE":
			cur.Kind = OpDelete
		default:
			return fmt.Errorf("opdelta: bad op kind %q", kind)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeBefore reassembles op's chunked before-image payload and
// decodes the images against the op's table schema.
func (l *TableLog) decodeBefore(op *Op, chunks map[int][]byte) error {
	if len(chunks) == 0 {
		return nil
	}
	var data []byte
	for part := 0; ; part++ {
		chunk, ok := chunks[part]
		if !ok {
			break
		}
		data = append(data, chunk...)
	}
	t, err := l.DB.Table(op.Table)
	if err != nil {
		return err
	}
	for pos := 0; pos < len(data); {
		sz, k := binary.Uvarint(data[pos:])
		if k <= 0 || uint64(len(data)-pos-k) < sz {
			return fmt.Errorf("opdelta: corrupt before images for seq %d", op.Seq)
		}
		pos += k
		img, err := catalog.DecodeTuple(t.Schema, data[pos:pos+int(sz)])
		if err != nil {
			return err
		}
		op.Before = append(op.Before, img)
		pos += int(sz)
	}
	return nil
}

// Truncate removes shipped ops (Seq <= upto) and records the new
// truncation boundary durably: a BASE marker row at seq upto keeps the
// sequence counter and Base() correct across a reopen, so a truncated
// log never re-issues sequence numbers a replica may already hold. The
// DELETE finds its rows through the o_seq index; the tail drops the
// same ops and raises its floor. An upto past the head clears the log
// and is recorded as the head: a boundary above seqs that are yet to be
// assigned would declare ops lost before they exist.
func (l *TableLog) Truncate(upto uint64) error {
	upto = min(upto, l.Seq())
	if upto == 0 {
		return nil
	}
	if _, err := l.DB.Exec(nil, fmt.Sprintf("DELETE FROM %s WHERE %s <= %d", TableLogName, seqColumn, upto)); err != nil {
		return err
	}
	marker := catalog.Tuple{
		catalog.NewInt(int64(upto)),
		catalog.NewInt(0),
		catalog.NewString("BASE"),
		catalog.NewString(""),
		catalog.NewString(""),
		catalog.NewTime(l.DB.Now()),
		catalog.NewBool(false),
		catalog.NewInt(0),
		catalog.NewNull(catalog.TypeBytes),
	}
	if err := l.DB.InsertTuple(nil, TableLogName, marker); err != nil {
		return err
	}
	l.tail.truncate(upto)
	for {
		cur := l.base.Load()
		if upto <= cur || l.base.CompareAndSwap(cur, upto) {
			return nil
		}
	}
}

// Close is a no-op (the table persists).
func (l *TableLog) Close() error { return nil }

func sortOps(ops []*Op) {
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j-1].Seq > ops[j].Seq; j-- {
			ops[j-1], ops[j] = ops[j], ops[j-1]
		}
	}
}

// FileLog appends ops to a flat file. Ops captured inside a transaction
// are buffered and written when it commits (dropped on abort), so the
// log never ships an aborted op while keeping capture off the
// transactional write path — the variant the paper found significantly
// faster. Reads are served from the same committed-op tail as
// TableLog's; the file is decoded once at open and again only for a
// reader below the tail's floor.
type FileLog struct {
	mu   sync.Mutex
	fs   fault.FS
	path string
	f    fault.File
	bw   *bufio.Writer
	// SchemaOf resolves the schema used to encode hybrid before images;
	// required only when captures carry them.
	SchemaOf func(table string) (*catalog.Schema, error)
	// Sync forces an fsync per commit batch when true.
	Sync bool

	tail    opTail
	pending map[*engine.Tx][]*Op
}

// Horizon reports the resolved watermark horizon and the largest
// committed seq; see TableLog.Horizon.
func (l *FileLog) Horizon() (resolved, maxCommitted uint64) {
	return l.tail.horizon()
}

// Base reports the truncation boundary. FileLog does not support
// truncation, so the base is always zero.
func (l *FileLog) Base() uint64 { return 0 }

// NewFileLog opens (appending to) the op log file at path.
func NewFileLog(path string, schemaOf func(table string) (*catalog.Schema, error)) (*FileLog, error) {
	return NewFileLogFS(fault.OS, path, schemaOf)
}

// NewFileLogFS is NewFileLog through an injectable filesystem.
func NewFileLogFS(fsys fault.FS, path string, schemaOf func(table string) (*catalog.Schema, error)) (*FileLog, error) {
	fsys = fault.OrOS(fsys)
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &FileLog{fs: fsys, path: path, f: f, bw: bufio.NewWriterSize(f, 1<<16),
		SchemaOf: schemaOf, pending: make(map[*engine.Tx][]*Op)}
	// Resume the sequence after existing ops, which seed the tail.
	ops, err := l.readFile(0, ^uint64(0))
	if err != nil {
		f.Close()
		return nil, err
	}
	l.tail.open(0, ops)
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Append assigns op.Seq and schedules the op to be written when tx
// commits. With a nil tx the op is written immediately. Either way it
// reaches readers only after the write (and the fsync, with Sync), and
// is shared with them from then on: the caller must not modify it
// after Append.
func (l *FileLog) Append(tx *engine.Tx, op *Op) error {
	op.Seq = l.tail.assign()
	if tx == nil {
		err := l.writeOps([]*Op{op})
		l.tail.resolve(err == nil, op)
		return err
	}
	l.mu.Lock()
	buffered := l.pending[tx]
	first := buffered == nil
	l.pending[tx] = append(buffered, op)
	l.mu.Unlock()
	if first {
		tx.OnCommit(func() error {
			ops := l.takePending(tx)
			err := l.writeOps(ops)
			l.tail.resolve(err == nil, ops...)
			return err
		})
		tx.OnAbort(func() { l.tail.resolve(false, l.takePending(tx)...) })
	}
	return nil
}

func (l *FileLog) takePending(tx *engine.Tx) []*Op {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := l.pending[tx]
	delete(l.pending, tx)
	return ops
}

func (l *FileLog) writeOps(ops []*Op) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, op := range ops {
		var schema *catalog.Schema
		if len(op.Before) > 0 {
			if l.SchemaOf == nil {
				return fmt.Errorf("opdelta: file log needs SchemaOf to encode before images")
			}
			var err error
			if schema, err = l.SchemaOf(op.Table); err != nil {
				return err
			}
		}
		payload, err := op.Encode(nil, schema)
		if err != nil {
			return err
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		if _, err := l.bw.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := l.bw.Write(payload); err != nil {
			return err
		}
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if l.Sync {
		return l.f.Sync()
	}
	return nil
}

// Read returns committed ops with Seq > fromSeq in order: from the
// tail, plus — only for a reader below the tail's floor — the ops in
// (fromSeq, floor] decoded from the file.
func (l *FileLog) Read(fromSeq uint64) ([]*Op, error) {
	ops, floor := l.tail.read(fromSeq)
	if fromSeq >= floor {
		return ops, nil
	}
	cold, err := l.readFile(fromSeq, floor)
	if err != nil {
		return nil, err
	}
	return append(cold, ops...), nil
}

// readFile decodes the ops with from < Seq <= upto from the file, in
// seq order. Everything at or below the tail's floor was flushed before
// it was published, so no flush is needed here; a frame torn by a crash
// or still being written ends the read.
func (l *FileLog) readFile(from, upto uint64) ([]*Op, error) {
	data, err := l.fs.ReadFile(l.path)
	if err != nil {
		return nil, err
	}
	var out []*Op
	pos := 0
	for pos+4 <= len(data) {
		sz := int(binary.LittleEndian.Uint32(data[pos:]))
		if pos+4+sz > len(data) {
			break // torn tail
		}
		frame := data[pos+4 : pos+4+sz]
		pos += 4 + sz
		op, _, err := l.decodeFrame(frame)
		if err != nil {
			return nil, err
		}
		if op.Seq > from && op.Seq <= upto {
			out = append(out, op)
		}
	}
	sortOps(out) // file order is commit order
	return out, nil
}

func (l *FileLog) decodeFrame(frame []byte) (*Op, int, error) {
	return DecodeOpResolve(frame, l.SchemaOf)
}

// DecodeOpResolve decodes one encoded op, resolving the schema needed
// for hybrid before images on demand: plain ops decode schema-free, and
// only when that fails is the table name peeked from the frame and
// schemaOf consulted. Both the file log and the wire-protocol applier
// decode with it — anything that receives encoded ops without knowing
// in advance which tables carry images.
func DecodeOpResolve(frame []byte, schemaOf func(table string) (*catalog.Schema, error)) (*Op, int, error) {
	op, n, err := DecodeOp(frame, nil)
	if err == nil {
		return op, n, nil
	}
	// Retry with a schema: the frame may carry before images.
	if schemaOf == nil {
		return nil, 0, err
	}
	// The table name blob sits after the fixed 26-byte header; peek it
	// to ask schemaOf which schema decodes the images.
	if len(frame) < 26 {
		return nil, 0, err
	}
	tbl, _, berr := readBlob(frame, 26)
	if berr != nil {
		return nil, 0, err
	}
	schema, serr := schemaOf(string(tbl))
	if serr != nil {
		return nil, 0, serr
	}
	return DecodeOp(frame, schema)
}

// Seq returns the last sequence number assigned (0 before any append).
func (l *FileLog) Seq() uint64 { return l.tail.seq.Load() }

// Close flushes and closes the file.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bw != nil {
		if err := l.bw.Flush(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}

// Path returns the log file location (for shipping).
func (l *FileLog) Path() string { return l.path }
