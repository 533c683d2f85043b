package opdelta

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/sqlmini"
)

type clock struct {
	mu  sync.Mutex
	now time.Time
}

func newClock() *clock { return &clock{now: time.Date(2000, 3, 1, 0, 0, 0, 0, time.UTC)} }

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(time.Millisecond)
	return c.now
}

func openDB(t *testing.T) *engine.DB {
	t.Helper()
	db, err := engine.Open(t.TempDir(), engine.Options{Now: newClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func createParts(t *testing.T, db *engine.DB) {
	t.Helper()
	if _, err := db.Exec(nil, `CREATE TABLE parts (
		part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT, last_modified TIMESTAMP
	) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`); err != nil {
		t.Fatal(err)
	}
}

func schemaOf(db *engine.DB) func(string) (*catalog.Schema, error) {
	return func(table string) (*catalog.Schema, error) {
		t, err := db.Table(table)
		if err != nil {
			return nil, err
		}
		return t.Schema, nil
	}
}

func TestOpEncodeDecodeRoundtrip(t *testing.T) {
	db := openDB(t)
	createParts(t, db)
	tbl, _ := db.Table("parts")
	now := time.Date(1999, 11, 15, 0, 0, 0, 0, time.UTC)
	img := catalog.Tuple{catalog.NewInt(1), catalog.NewString("s"), catalog.NewInt(2), catalog.NewTime(now)}
	ops := []*Op{
		{Seq: 1, Txn: 7, Kind: OpInsert, Table: "parts", Stmt: "INSERT INTO parts VALUES (1)", Time: now},
		{Seq: 2, Txn: 8, Kind: OpUpdate, Table: "parts",
			Stmt: "UPDATE parts SET status = 'revised' WHERE qty > 3", Time: now,
			Before: []catalog.Tuple{img, img}},
		{Seq: 3, Txn: 9, Kind: OpDelete, Table: "parts", Stmt: "DELETE FROM parts", Time: now},
	}
	for _, in := range ops {
		enc, err := in.Encode(nil, tbl.Schema)
		if err != nil {
			t.Fatal(err)
		}
		out, n, err := DecodeOp(enc, tbl.Schema)
		if err != nil || n != len(enc) {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		if out.Seq != in.Seq || out.Txn != in.Txn || out.Kind != in.Kind ||
			out.Table != in.Table || out.Stmt != in.Stmt || !out.Time.Equal(in.Time) {
			t.Fatalf("mismatch: %+v vs %+v", in, out)
		}
		if len(out.Before) != len(in.Before) {
			t.Fatalf("before images: %d vs %d", len(out.Before), len(in.Before))
		}
		for i := range in.Before {
			if !in.Before[i].Equal(out.Before[i]) {
				t.Fatalf("image %d mismatch", i)
			}
		}
	}
	// A kind byte outside INSERT/UPDATE/DELETE is not an op.
	for _, kind := range []OpKind{OpInvalid, 9} {
		bad := *ops[0]
		bad.Kind = kind
		enc, err := bad.Encode(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeOp(enc, tbl.Schema); err == nil || !strings.Contains(err.Error(), "bad op kind") {
			t.Errorf("kind %d decoded: err = %v", kind, err)
		}
	}
}

// TestTableLogRefusesOtherLayout opens a TableLog over an op-log table
// laid out one column per op field, as earlier versions wrote it: the
// log must refuse it, naming both layouts, rather than misread its rows.
func TestTableLogRefusesOtherLayout(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec(nil, `CREATE TABLE opdelta__log (
		o_seq BIGINT NOT NULL, o_txn BIGINT NOT NULL, o_kind VARCHAR NOT NULL,
		o_table VARCHAR NOT NULL, o_stmt VARCHAR NOT NULL, o_time TIMESTAMP NOT NULL,
		o_hybrid BOOLEAN NOT NULL, o_part BIGINT NOT NULL, o_before VARBINARY)`); err != nil {
		t.Fatal(err)
	}
	_, err := NewTableLog(db)
	if err == nil {
		t.Fatal("NewTableLog accepted a nine-column op-log table")
	}
	for _, want := range []string{"o_kind VARCHAR", "o_before VARBINARY", "o_op VARBINARY"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestOpSizeIndependentOfRowsAffected(t *testing.T) {
	db := openDB(t)
	createParts(t, db)
	tbl, _ := db.Table("parts")
	small := &Op{Kind: OpDelete, Table: "parts", Stmt: "DELETE FROM parts WHERE part_id BETWEEN 0 AND 9"}
	big := &Op{Kind: OpDelete, Table: "parts", Stmt: "DELETE FROM parts WHERE part_id BETWEEN 0 AND 9999"}
	ds, bs := small.EncodedSize(tbl.Schema), big.EncodedSize(tbl.Schema)
	if bs-ds > 4 {
		t.Fatalf("op size must not grow with rows affected: %d vs %d", ds, bs)
	}
}

func TestTableLogTransactional(t *testing.T) {
	db := openDB(t)
	createParts(t, db)
	log, err := NewTableLog(db)
	if err != nil {
		t.Fatal(err)
	}
	cap := &Capture{DB: db, Log: log}
	// Committed op is readable.
	if _, err := cap.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 1)`); err != nil {
		t.Fatal(err)
	}
	ops, err := log.Read(0)
	if err != nil || len(ops) != 1 {
		t.Fatalf("read: %d, %v", len(ops), err)
	}
	if ops[0].Kind != OpInsert || ops[0].Txn == 0 {
		t.Fatalf("op = %+v", ops[0])
	}
	// Aborted transaction's op rolls back with it.
	tx := db.Begin()
	if _, err := cap.Exec(tx, `INSERT INTO parts (part_id) VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	ops, _ = log.Read(0)
	if len(ops) != 1 {
		t.Fatalf("aborted op leaked into table log: %d ops", len(ops))
	}
	// Multi-statement transaction keeps boundaries: both ops share Txn.
	tx = db.Begin()
	cap.Exec(tx, `INSERT INTO parts (part_id) VALUES (3)`)
	cap.Exec(tx, `UPDATE parts SET status = 'x' WHERE part_id = 3`)
	tx.Commit()
	ops, _ = log.Read(0)
	if len(ops) != 3 || ops[1].Txn != ops[2].Txn {
		t.Fatalf("transaction boundary lost: %+v", ops)
	}
	// Cursor reads.
	tail, _ := log.Read(ops[0].Seq)
	if len(tail) != 2 {
		t.Fatalf("cursor read = %d", len(tail))
	}
	// Truncate shipped prefix.
	if err := log.Truncate(ops[1].Seq); err != nil {
		t.Fatal(err)
	}
	rest, _ := log.Read(0)
	if len(rest) != 1 || rest[0].Seq != ops[2].Seq {
		t.Fatalf("after truncate: %+v", rest)
	}
}

func TestFileLogCommitCoupling(t *testing.T) {
	db := openDB(t)
	createParts(t, db)
	log, err := NewFileLog(filepath.Join(t.TempDir(), "ops.log"), schemaOf(db))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cap := &Capture{DB: db, Log: log}
	// Aborted ops never reach the file.
	tx := db.Begin()
	cap.Exec(tx, `INSERT INTO parts (part_id) VALUES (1)`)
	tx.Abort()
	ops, err := log.Read(0)
	if err != nil || len(ops) != 0 {
		t.Fatalf("aborted op reached file log: %d, %v", len(ops), err)
	}
	// Committed ops do, in order.
	tx = db.Begin()
	cap.Exec(tx, `INSERT INTO parts (part_id) VALUES (1)`)
	cap.Exec(tx, `DELETE FROM parts WHERE part_id = 1`)
	tx.Commit()
	ops, _ = log.Read(0)
	if len(ops) != 2 || ops[0].Kind != OpInsert || ops[1].Kind != OpDelete {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestFileLogResumesSequence(t *testing.T) {
	db := openDB(t)
	createParts(t, db)
	path := filepath.Join(t.TempDir(), "ops.log")
	log, _ := NewFileLog(path, schemaOf(db))
	cap := &Capture{DB: db, Log: log}
	cap.Exec(nil, `INSERT INTO parts (part_id) VALUES (1)`)
	cap.Exec(nil, `INSERT INTO parts (part_id) VALUES (2)`)
	log.Close()

	log2, err := NewFileLog(path, schemaOf(db))
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	cap2 := &Capture{DB: db, Log: log2}
	cap2.Exec(nil, `INSERT INTO parts (part_id) VALUES (3)`)
	ops, _ := log2.Read(0)
	if len(ops) != 3 {
		t.Fatalf("ops = %d", len(ops))
	}
	if ops[2].Seq != 3 {
		t.Fatalf("sequence did not resume: %+v", ops[2])
	}
}

func TestCaptureHybridBeforeImages(t *testing.T) {
	db := openDB(t)
	createParts(t, db)
	for i := 0; i < 10; i++ {
		db.Exec(nil, fmt.Sprintf(`INSERT INTO parts (part_id, status, qty) VALUES (%d, 'a', %d)`, i, i))
	}
	// A projection view that drops qty: a DELETE predicated on qty
	// needs before images.
	view := ViewDef{Name: "w_parts", Source: "parts", Project: []string{"part_id", "status"}}
	log, _ := NewTableLog(db)
	cap := &Capture{DB: db, Log: log, Analyzer: NewAnalyzer(view)}

	if _, err := cap.Exec(nil, `DELETE FROM parts WHERE qty >= 7`); err != nil {
		t.Fatal(err)
	}
	ops, _ := log.Read(0)
	if len(ops) != 1 {
		t.Fatalf("ops = %d", len(ops))
	}
	if len(ops[0].Before) != 3 {
		t.Fatalf("hybrid capture got %d before images, want 3", len(ops[0].Before))
	}
	for _, img := range ops[0].Before {
		if img[2].Int() < 7 {
			t.Fatalf("wrong before image captured: %v", img)
		}
	}
	if cap.Stats().Hybrids != 1 {
		t.Fatalf("stats = %+v", cap.Stats())
	}

	// A DELETE the view can absorb (predicate within projection) stays
	// pure Op-Delta.
	if _, err := cap.Exec(nil, `DELETE FROM parts WHERE status = 'nope'`); err != nil {
		t.Fatal(err)
	}
	ops, _ = log.Read(ops[0].Seq)
	if len(ops) != 1 || ops[0].Before != nil {
		t.Fatalf("pure op expected: %+v", ops)
	}
}

func TestCaptureDoesNotLogSelects(t *testing.T) {
	db := openDB(t)
	createParts(t, db)
	log, _ := NewTableLog(db)
	cap := &Capture{DB: db, Log: log}
	cap.Exec(nil, `INSERT INTO parts (part_id) VALUES (1)`)
	if _, err := cap.Exec(nil, `SELECT * FROM parts`); err == nil {
		t.Fatal("Exec of SELECT should fail like the engine does")
	}
	ops, _ := log.Read(0)
	if len(ops) != 1 {
		t.Fatalf("ops = %d", len(ops))
	}
}

func TestAnalyzerClassification(t *testing.T) {
	mustExpr := func(s string) sqlmini.Expr {
		e, err := sqlmini.ParseExpr(s)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	mustStmt := func(s string) sqlmini.Statement {
		st, err := sqlmini.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	projView := ViewDef{Name: "v", Source: "parts", Project: []string{"part_id", "status"}}
	selView := ViewDef{Name: "v", Source: "parts", Where: mustExpr("status = 'active'")}
	joinView := ViewDef{Name: "v", Source: "orders",
		Join: &JoinSpec{Table: "parts", LeftCol: "part_id", RightCol: "part_id"}}

	cases := []struct {
		view ViewDef
		stmt string
		want Maintainability
	}{
		// Inserts carry full rows.
		{projView, `INSERT INTO parts VALUES (1, 'a', 2, NULL)`, SelfMaintainable},
		{selView, `INSERT INTO parts VALUES (1, 'a', 2, NULL)`, SelfMaintainable},
		// Delete within projection: self-maintainable.
		{projView, `DELETE FROM parts WHERE status = 'dead'`, SelfMaintainable},
		// Delete on a dropped column: hybrid.
		{projView, `DELETE FROM parts WHERE qty < 5`, NeedsBefore},
		// Delete-all is always expressible.
		{projView, `DELETE FROM parts`, SelfMaintainable},
		// Update inside projection, no selection: self-maintainable.
		{projView, `UPDATE parts SET status = 'x' WHERE part_id = 3`, SelfMaintainable},
		// Update reading a dropped column: hybrid.
		{projView, `UPDATE parts SET status = 'x' WHERE qty > 2`, NeedsBefore},
		// Update writing through an expression over a dropped column: hybrid.
		{projView, `UPDATE parts SET status = 'p' + note WHERE part_id = 1`, NeedsBefore},
		// Update touching the selection predicate column: rows may
		// migrate into the view: hybrid.
		{selView, `UPDATE parts SET status = 'active' WHERE part_id = 9`, NeedsBefore},
		// Update not touching selection columns: self-maintainable.
		{selView, `UPDATE parts SET qty = 5 WHERE part_id = 9`, SelfMaintainable},
		// Join views go through the auxiliary replica.
		{joinView, `INSERT INTO parts VALUES (1, 'a', 2, NULL)`, NeedsAux},
		{joinView, `DELETE FROM orders WHERE order_id = 1`, NeedsAux},
		// Unrelated tables never matter.
		{projView, `DELETE FROM other WHERE qty < 5`, SelfMaintainable},
	}
	for _, c := range cases {
		got := c.view.Classify(mustStmt(c.stmt))
		if got != c.want {
			t.Errorf("Classify(%s | view=%s proj=%v) = %v, want %v",
				c.stmt, c.view.Name, c.view.Project, got, c.want)
		}
	}
	// Analyzer aggregates across views.
	a := NewAnalyzer(projView, selView)
	if !a.NeedsBeforeImages(mustStmt(`DELETE FROM parts WHERE qty < 5`)) {
		t.Error("analyzer should demand before images")
	}
	if a.NeedsBeforeImages(mustStmt(`INSERT INTO parts VALUES (1, 'a', 2, NULL)`)) {
		t.Error("insert never needs before images")
	}
}

func TestViewDefValidate(t *testing.T) {
	if err := (&ViewDef{}).Validate(); err == nil {
		t.Error("empty view must fail")
	}
	if err := (&ViewDef{Name: "v", Source: "t", Join: &JoinSpec{}}).Validate(); err == nil {
		t.Error("incomplete join must fail")
	}
	if err := (&ViewDef{Name: "v", Source: "t"}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestTableLogChunksLargeHybridPayloads(t *testing.T) {
	db := openDB(t)
	createParts(t, db)
	// 500 rows x ~100-byte images ≈ 50 KB of before images — far beyond
	// one page.
	tx := db.Begin()
	for i := 0; i < 500; i++ {
		if _, err := db.Exec(tx, fmt.Sprintf(
			`INSERT INTO parts (part_id, status, qty) VALUES (%d, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx', %d)`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	view := ViewDef{Name: "v", Source: "parts", Project: []string{"part_id", "status"}, SourcePK: "part_id"}
	log, err := NewTableLog(db)
	if err != nil {
		t.Fatal(err)
	}
	cap := &Capture{DB: db, Log: log, Analyzer: NewAnalyzer(view)}
	if _, err := cap.Exec(nil, `DELETE FROM parts WHERE qty >= 0`); err != nil {
		t.Fatal(err)
	}
	ops, err := log.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 {
		t.Fatalf("ops = %d", len(ops))
	}
	if !ops[0].Hybrid || len(ops[0].Before) != 500 {
		t.Fatalf("hybrid reassembly: hybrid=%v images=%d", ops[0].Hybrid, len(ops[0].Before))
	}
	// Every image intact.
	seen := map[int64]bool{}
	for _, img := range ops[0].Before {
		if img[1].Str() != "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx" {
			t.Fatalf("image corrupted: %v", img)
		}
		seen[img[0].Int()] = true
	}
	if len(seen) != 500 {
		t.Fatalf("distinct images = %d", len(seen))
	}
	// Truncate removes every row of a chunked op.
	if err := log.Truncate(ops[0].Seq); err != nil {
		t.Fatal(err)
	}
	rest, _ := log.Read(0)
	if len(rest) != 0 {
		t.Fatalf("rows after truncate: %d", len(rest))
	}
}
