package opdelta

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/sqlmini"
	"opdelta/internal/storage"
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

// tableLogSchema stores each op as its encoding (Op.Encode), cut into
// chunks of at most opChunk bytes, one row per chunk: o_part numbers an
// op's chunks from 0. A BASE marker (see Truncate) is a row with o_part
// basePart and a NULL o_op.
func tableLogSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "o_seq", Type: catalog.TypeInt64, NotNull: true},
		catalog.Column{Name: "o_part", Type: catalog.TypeInt64, NotNull: true},
		catalog.Column{Name: "o_op", Type: catalog.TypeBytes},
	)
}

// opChunk is the most encoded-op bytes one op-log row carries: a row
// with a full chunk — its null bitmap, o_seq, o_part, the chunk's
// 2-byte length and the chunk — is the largest record a page holds.
// The engine has no LOB column, so the log plays the role of one.
const opChunk = storage.MaxRecord - (1 + 8 + 8 + 2)

// basePart is the o_part of a BASE marker row.
const basePart = -1

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
	if want := tableLogSchema(); !t.Schema.Equal(want) {
		return nil, fmt.Errorf("opdelta: %s has the layout %s, not this op log's %s: ship its ops with the build that wrote them, then drop the table",
			TableLogName, t.Schema, want)
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
		for markers < len(rows) && rows[markers][1].Int() == basePart {
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

// Append writes the op's rows within tx, or within a transaction of
// its own when tx is nil. The op reaches readers from the transaction's
// commit hook — after the commit record is durable — and is shared
// with them from then on: the caller must not modify it after Append.
func (l *TableLog) Append(tx *engine.Tx, op *Op) error {
	if tx == nil {
		tx = l.DB.Begin()
		if err := l.Append(tx, op); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	op.Seq = l.tail.assign()
	if err := l.appendRows(tx, op); err != nil {
		l.tail.resolve(false, op)
		return err
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

// appendRows writes op's encoding as one row per opChunk bytes.
func (l *TableLog) appendRows(tx *engine.Tx, op *Op) error {
	var schema *catalog.Schema
	if len(op.Before) > 0 {
		var err error
		if schema, err = l.DB.Schema(op.Table); err != nil {
			return err
		}
	}
	enc, err := op.Encode(make([]byte, 0, op.EncodedSize(schema)), schema)
	if err != nil {
		return err
	}
	for part := 0; len(enc) > 0; part++ {
		n := min(len(enc), opChunk)
		row := catalog.Tuple{catalog.NewInt(int64(op.Seq)), catalog.NewInt(int64(part)), catalog.NewBytes(enc[:n])}
		if err := l.DB.InsertTuple(tx, TableLogName, row); err != nil {
			return err
		}
		enc = enc[n:]
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

// readRows decodes the ops with from < Seq <= upto from the table. The
// o_seq index delivers rows in seq order, an op's chunks next to each
// other, so one op is assembled at a time: its chunks joined in o_part
// order and decoded by DecodeOpResolve. upto never exceeds the tail's
// floor, which never exceeds the resolved horizon: every row in range
// is committed.
func (l *TableLog) readRows(from, upto uint64) ([]*Op, error) {
	seqCol := &sqlmini.ColRef{Name: seqColumn}
	where := &sqlmini.Binary{Op: sqlmini.OpAnd,
		L: &sqlmini.Binary{Op: sqlmini.OpGt, L: seqCol, R: &sqlmini.Literal{Val: catalog.NewInt(int64(from))}},
		R: &sqlmini.Binary{Op: sqlmini.OpLe, L: seqCol, R: &sqlmini.Literal{Val: catalog.NewInt(int64(upto))}},
	}
	type chunk struct {
		part int64
		b    []byte
	}
	var (
		out    []*Op
		seq    uint64  // op being assembled
		chunks []chunk // its rows so far
	)
	finish := func() error {
		if len(chunks) == 0 {
			return nil
		}
		slices.SortFunc(chunks, func(a, b chunk) int { return cmp.Compare(a.part, b.part) })
		var enc []byte
		for i, c := range chunks {
			if c.part != int64(i) {
				return fmt.Errorf("opdelta: op %d lacks part %d", seq, i)
			}
			enc = append(enc, c.b...)
		}
		op, n, err := DecodeOpResolve(enc, l.DB.Schema)
		if err != nil {
			return fmt.Errorf("opdelta: op %d: %w", seq, err)
		}
		if op.Seq != seq || n != len(enc) {
			return fmt.Errorf("opdelta: op-log rows of seq %d hold op %d and %d stray bytes", seq, op.Seq, len(enc)-n)
		}
		out = append(out, op)
		chunks = chunks[:0]
		return nil
	}
	_, err := l.DB.IterateSelect(nil, &sqlmini.Select{Table: TableLogName, Where: where}, func(row catalog.Tuple) error {
		part := row[1].Int()
		if part == basePart {
			return nil
		}
		if s := uint64(row[0].Int()); s != seq {
			if err := finish(); err != nil {
				return err
			}
			seq = s
		}
		chunks = append(chunks, chunk{part, row[2].BytesVal()})
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
	marker := catalog.Tuple{catalog.NewInt(int64(upto)), catalog.NewInt(basePart), catalog.NewNull(catalog.TypeBytes)}
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
	var frame []byte
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
		var err error
		if frame, err = AppendOpFrame(frame[:0], op, schema); err != nil {
			return err
		}
		if _, err := l.bw.Write(frame); err != nil {
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
	frames, _ := SplitOpFrames(data) // a torn tail ends the log
	for _, frame := range frames {
		op, _, err := DecodeOpResolve(frame, l.SchemaOf)
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
