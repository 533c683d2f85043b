package opdelta

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/workload"
)

// headerLen is the length of op's encoded header: its seq and txn
// varints, kind, flags and capture time.
func headerLen(op *Op) int { return uvarintLen(op.Seq) + uvarintLen(op.Txn) + 1 + 1 + 8 }

// fixedWidthEncode encodes op in the layout earlier builds wrote: seq
// and txn as 8-byte little-endian words, the rest as Encode writes it.
func fixedWidthEncode(t testing.TB, op *Op, schema *catalog.Schema) []byte {
	t.Helper()
	enc, err := op.Encode(nil, schema)
	if err != nil {
		t.Fatal(err)
	}
	old := binary.LittleEndian.AppendUint64(nil, op.Seq)
	old = binary.LittleEndian.AppendUint64(old, op.Txn)
	return append(old, enc[uvarintLen(op.Seq)+uvarintLen(op.Txn):]...)
}

// TestOpHeaderVarints: seq and txn are minimal uvarints. Every width
// round-trips through DecodeOpResolve and PeekSeq, the encoding is
// EncodedSize bytes, and a longer form of either field is refused by
// both readers.
func TestOpHeaderVarints(t *testing.T) {
	now := time.Date(2000, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, v := range []uint64{0, 1, 127, 128, 300, 1<<14 - 1, 1 << 14, 1 << 21, 1 << 35, 1<<56 + 5, math.MaxUint64} {
		op := &Op{Seq: v, Txn: v/3 + 1, Kind: OpUpdate, Table: "parts",
			Stmt: "UPDATE parts SET status = 'x' WHERE part_id BETWEEN 5 AND 5", Time: now}
		enc, err := op.Encode(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != op.EncodedSize(nil) {
			t.Fatalf("seq %d: encoding is %d bytes, EncodedSize %d", v, len(enc), op.EncodedSize(nil))
		}
		got, n, err := DecodeOp(enc, nil)
		if err != nil || n != len(enc) || got.Seq != op.Seq || got.Txn != op.Txn || got.Stmt != op.Stmt || !got.Time.Equal(now) {
			t.Fatalf("seq %d: decoded %+v, %d of %d bytes, %v", v, got, n, len(enc), err)
		}
		if seq, err := PeekSeq(enc); err != nil || seq != v {
			t.Fatalf("seq %d: PeekSeq = %d, %v", v, seq, err)
		}
	}
	op := &Op{Seq: 5, Txn: 9, Kind: OpDelete, Table: "parts", Stmt: "DELETE FROM parts WHERE part_id = 5", Time: now}
	enc, err := op.Encode(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h := headerLen(op); h != 12 {
		t.Fatalf("a one-byte seq and txn make a %d-byte header, want 12", h)
	}
	for name, long := range map[string][]byte{
		"seq": append([]byte{0x85, 0x00}, enc[1:]...),
		"txn": append([]byte{enc[0], 0x89, 0x00}, enc[2:]...),
	} {
		if _, _, err := DecodeOp(long, nil); !errors.Is(err, errBadVarint) {
			t.Errorf("non-minimal %s: DecodeOp err = %v, want %v", name, err, errBadVarint)
		}
		if _, err := PeekSeq(long); !errors.Is(err, errBadVarint) {
			t.Errorf("non-minimal %s: PeekSeq err = %v, want %v", name, err, errBadVarint)
		}
	}
	for _, cut := range []int{0, 1, 2, 11, 12, 13} {
		if _, err := PeekSeq(enc[:cut]); err == nil {
			t.Errorf("PeekSeq read a seq from the first %d bytes", cut)
		}
	}
}

// TestFixedWidthOpsFailNamed: ops in the fixed-width layout fail
// DecodeOpResolve and PeekSeq with ErrFixedWidthOp — never decode as an
// op of the current layout — for every kind, with and without before
// images, over every seq below 1<<17 and seqs and txns at each byte
// boundary up to 1<<32.
func TestFixedWidthOpsFailNamed(t *testing.T) {
	schema := workload.PartsSchema()
	now := time.Date(2000, 3, 1, 0, 0, 0, 0, time.UTC)
	img := workload.PartRow(7, now)
	shapes := []*Op{
		{Kind: OpInsert, Table: "parts", Stmt: workload.SingleInsertStmt(7), Time: now},
		{Kind: OpUpdate, Table: "parts", Stmt: workload.UpdateStmt(7, 1, "m"), Time: now},
		{Kind: OpDelete, Table: "parts", Stmt: workload.DeleteStmt(7, 1), Time: now, Hybrid: true, Before: []catalog.Tuple{img}},
	}
	var bounds []uint64
	for b := uint(0); b < 32; b++ {
		bounds = append(bounds, 1<<b-1, 1<<b, 1<<b+1, 0x7f<<(b/8*8), 0x80<<(b/8*8))
	}
	check := func(op *Op) {
		t.Helper()
		old := fixedWidthEncode(t, op, schema)
		if got, _, err := DecodeOp(old, schema); !errors.Is(err, ErrFixedWidthOp) {
			t.Fatalf("seq %d txn %d %s: DecodeOp = %+v, %v; want %v", op.Seq, op.Txn, op.Kind, got, err, ErrFixedWidthOp)
		}
		if seq, err := PeekSeq(old); !errors.Is(err, ErrFixedWidthOp) {
			t.Fatalf("seq %d txn %d %s: PeekSeq = %d, %v; want %v", op.Seq, op.Txn, op.Kind, seq, err, ErrFixedWidthOp)
		}
	}
	for _, shape := range shapes {
		op := *shape
		for seq := uint64(0); seq < 1<<17; seq++ {
			op.Seq, op.Txn = seq, seq/2+1
			check(&op)
		}
		for _, seq := range bounds {
			for _, txn := range bounds {
				if seq < 1<<32 && txn < 1<<32 {
					op.Seq, op.Txn = seq, txn
					check(&op)
				}
			}
		}
	}
}

// TestCaptureRecordsSubmittedText: a captured one-row INSERT, UPDATE
// and DELETE of the benchmark's statement shapes carries the submitted
// text byte for byte (BETWEEN and all), and encodes in its text plus
// at most opHeaderBound bytes.
func TestCaptureRecordsSubmittedText(t *testing.T) {
	// opHeaderBound covers a seq and a txn of three varint bytes each
	// (below 1<<21), kind, flags, time, the blob of "parts", a two-byte
	// statement length and the image count.
	const opHeaderBound = 3 + 3 + 1 + 1 + 8 + 1 + len("parts") + 2 + 1
	db := openDB(t)
	if err := workload.CreateParts(db); err != nil {
		t.Fatal(err)
	}
	if err := workload.Populate(db, 20); err != nil {
		t.Fatal(err)
	}
	log, err := NewTableLog(db)
	if err != nil {
		t.Fatal(err)
	}
	capture := &Capture{DB: db, Log: log}
	for _, text := range []string{workload.SingleInsertStmt(100), workload.UpdateStmt(5, 1, "m"), workload.DeleteStmt(6, 1)} {
		if _, err := capture.Exec(nil, text); err != nil {
			t.Fatal(err)
		}
		ops, err := log.Read(log.Seq() - 1)
		if err != nil || len(ops) != 1 {
			t.Fatalf("%s: read %d ops, %v", text, len(ops), err)
		}
		op := ops[0]
		if op.Stmt != text {
			t.Errorf("captured %q, submitted %q", op.Stmt, text)
		}
		enc, err := op.Encode(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > len(text)+opHeaderBound || len(enc) != op.EncodedSize(nil) {
			t.Errorf("%s: %d-byte text encodes in %d bytes (EncodedSize %d), bound %d",
				text, len(text), len(enc), op.EncodedSize(nil), len(text)+opHeaderBound)
		}
		t.Logf("%d B: %s", len(enc), text)
	}
}

// TestTableLogRefusesFixedWidthOps: an op-log table whose rows hold the
// fixed-width layout fails its first read below the head with
// ErrFixedWidthOp.
func TestTableLogRefusesFixedWidthOps(t *testing.T) {
	db := openDB(t)
	createParts(t, db)
	if _, err := NewTableLog(db); err != nil {
		t.Fatal(err)
	}
	op := &Op{Seq: 1, Txn: 3, Kind: OpInsert, Table: "parts",
		Stmt: "INSERT INTO parts (part_id) VALUES (1)", Time: time.Unix(0, 0)}
	row := catalog.Tuple{catalog.NewInt(1), catalog.NewInt(0), catalog.NewBytes(fixedWidthEncode(t, op, nil))}
	if err := db.InsertTuple(nil, TableLogName, row); err != nil {
		t.Fatal(err)
	}
	log, err := NewTableLog(db)
	if err != nil {
		t.Fatal(err)
	}
	if log.Seq() != 1 {
		t.Fatalf("reopened log at seq %d, want 1", log.Seq())
	}
	if ops, err := log.Read(0); !errors.Is(err, ErrFixedWidthOp) {
		t.Fatalf("Read(0) = %d ops, %v; want %v", len(ops), err, ErrFixedWidthOp)
	}
}

// TestFileLogRefusesFixedWidthOps: an op file of fixed-width frames —
// a FileLog's, or the op files `opdeltad -method opdelta` writes —
// fails with ErrFixedWidthOp when it is opened, as opening reads it.
func TestFileLogRefusesFixedWidthOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	var data []byte
	for seq := uint64(1); seq <= 3; seq++ {
		op := &Op{Seq: seq, Txn: seq, Kind: OpDelete, Table: "parts",
			Stmt: "DELETE FROM parts WHERE part_id = 1", Time: time.Unix(0, 0)}
		enc := fixedWidthEncode(t, op, nil)
		data = binary.LittleEndian.AppendUint32(data, uint32(len(enc)))
		data = append(data, enc...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := NewFileLog(path, nil); !errors.Is(err, ErrFixedWidthOp) {
		if l != nil {
			l.Close()
		}
		t.Fatalf("NewFileLog over fixed-width frames: %v, want %v", err, ErrFixedWidthOp)
	}
}
