package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/txn"
)

// logicalClock is an injectable deterministic clock.
type logicalClock struct {
	mu  sync.Mutex
	now time.Time
}

func newClock() *logicalClock {
	return &logicalClock{now: time.Date(2000, 3, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *logicalClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(time.Millisecond)
	return c.now
}

func openTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Now == nil {
		opts.Now = newClock().Now
	}
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func createParts(t *testing.T, db *DB) {
	t.Helper()
	if _, err := db.Exec(nil, `CREATE TABLE parts (
		part_id BIGINT NOT NULL,
		status VARCHAR,
		qty BIGINT,
		last_modified TIMESTAMP
	) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`); err != nil {
		t.Fatal(err)
	}
}

func TestCreateInsertSelect(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	res, err := db.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'new', 10), (2, 'old', 20)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
	_, rows, err := db.Query(nil, `SELECT part_id, status FROM parts WHERE qty > 15`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 2 || rows[0][1].Str() != "old" {
		t.Fatalf("rows = %v", rows)
	}
	// Timestamp column was auto-filled.
	_, all, _ := db.Query(nil, `SELECT * FROM parts`)
	for _, r := range all {
		if r[3].IsNull() {
			t.Fatal("timestamp column not maintained")
		}
	}
}

func TestInsertConstraints(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	if _, err := db.Exec(nil, `INSERT INTO parts (part_id) VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// Duplicate PK.
	if _, err := db.Exec(nil, `INSERT INTO parts (part_id) VALUES (1)`); err == nil {
		t.Fatal("duplicate PK must fail")
	}
	// NULL PK (omitted).
	if _, err := db.Exec(nil, `INSERT INTO parts (status) VALUES ('x')`); err == nil {
		t.Fatal("NULL primary key must fail")
	}
	// Arity mismatch.
	if _, err := db.Exec(nil, `INSERT INTO parts VALUES (2)`); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	// Type mismatch.
	if _, err := db.Exec(nil, `INSERT INTO parts (part_id, qty) VALUES (3, 'many')`); err == nil {
		t.Fatal("type mismatch must fail")
	}
	// Unknown column.
	if _, err := db.Exec(nil, `INSERT INTO parts (ghost) VALUES (1)`); err == nil {
		t.Fatal("unknown column must fail")
	}
	if n := mustCount(t, db, "parts", ""); n != 1 {
		t.Fatalf("row count = %d, want 1 (failed statements rolled back)", n)
	}
}

func mustCount(t *testing.T, db *DB, table, where string) int {
	t.Helper()
	q := "SELECT * FROM " + table
	if where != "" {
		q += " WHERE " + where
	}
	_, rows, err := db.Query(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	return len(rows)
}

func TestMultiRowStatementIsAtomic(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	// Third row duplicates the first: the whole autocommit statement
	// must roll back.
	_, err := db.Exec(nil, `INSERT INTO parts (part_id) VALUES (10), (11), (10)`)
	if err == nil {
		t.Fatal("expected duplicate-key failure")
	}
	if n := mustCount(t, db, "parts", ""); n != 0 {
		t.Fatalf("rows after failed statement = %d, want 0", n)
	}
}

func TestUpdateSemantics(t *testing.T) {
	clock := newClock()
	db := openTestDB(t, Options{Now: clock.Now})
	createParts(t, db)
	db.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'new', 1), (2, 'new', 2), (3, 'old', 3)`)

	_, before, _ := db.Query(nil, `SELECT last_modified FROM parts WHERE part_id = 2`)
	res, err := db.Exec(nil, `UPDATE parts SET status = 'revised', qty = qty + 100 WHERE status = 'new'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
	_, rows, _ := db.Query(nil, `SELECT qty FROM parts WHERE part_id = 2`)
	if rows[0][0].Int() != 102 {
		t.Fatalf("qty = %v", rows[0][0])
	}
	// Timestamp bumped by the update.
	_, after, _ := db.Query(nil, `SELECT last_modified FROM parts WHERE part_id = 2`)
	if !after[0][0].Time().After(before[0][0].Time()) {
		t.Fatal("update must bump the timestamp column")
	}
	// Untouched row unchanged.
	if n := mustCount(t, db, "parts", "status = 'old' AND qty = 3"); n != 1 {
		t.Fatal("unmatched row modified")
	}
	// Update with no matches.
	res, err = db.Exec(nil, `UPDATE parts SET qty = 0 WHERE part_id = 999`)
	if err != nil || res.RowsAffected != 0 {
		t.Fatalf("no-match update: %v, %v", res, err)
	}
	// PK update rewires the index.
	if _, err := db.Exec(nil, `UPDATE parts SET part_id = 30 WHERE part_id = 3`); err != nil {
		t.Fatal(err)
	}
	if n := mustCount(t, db, "parts", "part_id = 30"); n != 1 {
		t.Fatal("index lost track of updated PK")
	}
	// PK update onto an existing key fails.
	if _, err := db.Exec(nil, `UPDATE parts SET part_id = 1 WHERE part_id = 2`); err == nil {
		t.Fatal("PK collision via update must fail")
	}
}

func TestDeleteSemantics(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	db.Exec(nil, `INSERT INTO parts (part_id, qty) VALUES (1, 1), (2, 2), (3, 3), (4, 4)`)
	res, err := db.Exec(nil, `DELETE FROM parts WHERE part_id BETWEEN 2 AND 3`)
	if err != nil || res.RowsAffected != 2 {
		t.Fatalf("delete: %v, %v", res, err)
	}
	if n := mustCount(t, db, "parts", ""); n != 2 {
		t.Fatalf("rows = %d", n)
	}
	// Deleted key reusable.
	if _, err := db.Exec(nil, `INSERT INTO parts (part_id) VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	// DELETE without WHERE clears the table.
	if _, err := db.Exec(nil, `DELETE FROM parts`); err != nil {
		t.Fatal(err)
	}
	if n := mustCount(t, db, "parts", ""); n != 0 {
		t.Fatalf("rows after delete-all = %d", n)
	}
}

func TestExplicitTransactionAbort(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	db.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'keep', 5)`)

	tx := db.Begin()
	if _, err := db.Exec(tx, `INSERT INTO parts (part_id) VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(tx, `UPDATE parts SET status = 'changed' WHERE part_id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(tx, `DELETE FROM parts WHERE part_id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	_, rows, err := db.Query(nil, `SELECT status, qty FROM parts WHERE part_id = 1`)
	if err != nil || len(rows) != 1 {
		t.Fatalf("row 1 after abort: %v, %v", rows, err)
	}
	if rows[0][0].Str() != "keep" || rows[0][1].Int() != 5 {
		t.Fatalf("abort did not restore row: %v", rows[0])
	}
	if n := mustCount(t, db, "parts", "part_id = 2"); n != 0 {
		t.Fatal("aborted insert survived")
	}
	// Index restored: key 2 insertable, key 1 findable.
	if _, err := db.Exec(nil, `INSERT INTO parts (part_id) VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	if n := mustCount(t, db, "parts", "part_id = 1"); n != 1 {
		t.Fatal("index lost key 1 after abort")
	}
}

func TestTxLifecycleErrors(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("double commit must fail")
	}
	if err := tx.Abort(); err == nil {
		t.Fatal("abort after commit must fail")
	}
	if _, err := db.Exec(tx, `INSERT INTO parts (part_id) VALUES (1)`); err == nil {
		t.Fatal("exec on finished tx must fail")
	}
}

func TestTriggersReceiveImages(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	var events []TriggerEvent
	err := db.CreateTrigger("parts", Trigger{
		Name: "cap", OnInsert: true, OnDelete: true, OnUpdate: true,
		Fn: func(tx *Tx, ev TriggerEvent) error {
			events = append(events, ev)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Exec(nil, `INSERT INTO parts (part_id, status) VALUES (1, 'a')`)
	db.Exec(nil, `UPDATE parts SET status = 'b' WHERE part_id = 1`)
	db.Exec(nil, `DELETE FROM parts WHERE part_id = 1`)

	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Op != TrigInsert || events[0].After[1].Str() != "a" || events[0].Before != nil {
		t.Fatalf("insert event = %+v", events[0])
	}
	if events[1].Op != TrigUpdate || events[1].Before[1].Str() != "a" || events[1].After[1].Str() != "b" {
		t.Fatalf("update event = %+v", events[1])
	}
	if events[2].Op != TrigDelete || events[2].Before[1].Str() != "b" || events[2].After != nil {
		t.Fatalf("delete event = %+v", events[2])
	}
}

func TestTriggerWritesDeltaTableInSameTxn(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	db.Exec(nil, `CREATE TABLE parts_delta (part_id BIGINT, op VARCHAR)`)
	err := db.CreateTrigger("parts", Trigger{
		Name: "delta", OnInsert: true,
		Fn: func(tx *Tx, ev TriggerEvent) error {
			stmt := fmt.Sprintf(`INSERT INTO parts_delta VALUES (%d, 'I')`, ev.After[0].Int())
			_, err := db.Exec(tx, stmt)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Exec(nil, `INSERT INTO parts (part_id) VALUES (1), (2), (3)`)
	if n := mustCount(t, db, "parts_delta", ""); n != 3 {
		t.Fatalf("delta rows = %d", n)
	}
	// Trigger action aborts with the user transaction.
	tx := db.Begin()
	db.Exec(tx, `INSERT INTO parts (part_id) VALUES (4)`)
	tx.Abort()
	if n := mustCount(t, db, "parts_delta", ""); n != 3 {
		t.Fatal("trigger action must roll back with the user transaction")
	}
	if n := mustCount(t, db, "parts", ""); n != 3 {
		t.Fatal("user rows must roll back")
	}
}

func TestTriggerErrorAbortsStatement(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	boom := errors.New("boom")
	db.CreateTrigger("parts", Trigger{
		Name: "fail", OnInsert: true,
		Fn: func(tx *Tx, ev TriggerEvent) error {
			if ev.After[0].Int() == 2 {
				return boom
			}
			return nil
		},
	})
	_, err := db.Exec(nil, `INSERT INTO parts (part_id) VALUES (1), (2)`)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := mustCount(t, db, "parts", ""); n != 0 {
		t.Fatal("failing trigger must abort the whole statement")
	}
}

func TestTriggerRecursionGuard(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	next := int64(100)
	db.CreateTrigger("parts", Trigger{
		Name: "recurse", OnInsert: true,
		Fn: func(tx *Tx, ev TriggerEvent) error {
			next++
			_, err := db.Exec(tx, fmt.Sprintf(`INSERT INTO parts (part_id) VALUES (%d)`, next))
			return err
		},
	})
	if _, err := db.Exec(nil, `INSERT INTO parts (part_id) VALUES (1)`); err == nil ||
		!strings.Contains(err.Error(), "recursion") {
		t.Fatalf("err = %v", err)
	}
}

func TestDropTrigger(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	count := 0
	db.CreateTrigger("parts", Trigger{Name: "c", OnInsert: true,
		Fn: func(*Tx, TriggerEvent) error { count++; return nil }})
	db.Exec(nil, `INSERT INTO parts (part_id) VALUES (1)`)
	if err := db.DropTrigger("parts", "c"); err != nil {
		t.Fatal(err)
	}
	db.Exec(nil, `INSERT INTO parts (part_id) VALUES (2)`)
	if count != 1 {
		t.Fatalf("trigger fired %d times, want 1", count)
	}
	if err := db.DropTrigger("parts", "c"); err == nil {
		t.Fatal("dropping a missing trigger must fail")
	}
	if err := db.CreateTrigger("parts", Trigger{Name: "", Fn: nil}); err == nil {
		t.Fatal("anonymous trigger must fail")
	}
}

func TestPersistenceAcrossCleanReopen(t *testing.T) {
	dir := t.TempDir()
	clock := newClock()
	db, err := Open(dir, Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(nil, `CREATE TABLE parts (part_id BIGINT NOT NULL, status VARCHAR) PRIMARY KEY (part_id)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Exec(nil, fmt.Sprintf(`INSERT INTO parts VALUES (%d, 's%d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Exec(nil, `DELETE FROM parts WHERE part_id < 10`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := mustCount(t, db2, "parts", ""); n != 90 {
		t.Fatalf("rows after reopen = %d, want 90", n)
	}
	// PK index rebuilt: duplicate rejected, existing found.
	if _, err := db2.Exec(nil, `INSERT INTO parts VALUES (50, 'dup')`); err == nil {
		t.Fatal("duplicate PK accepted after reopen")
	}
	if _, err := db2.Exec(nil, `INSERT INTO parts VALUES (5, 'reuse')`); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecovery simulates a crash by abandoning a DB instance after
// only the WAL reached the OS, then reopening the directory.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := newClock()
	db, err := Open(dir, Options{Now: clock.Now, PoolPages: 4}) // tiny pool: some pages flush early
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(nil, `CREATE TABLE parts (part_id BIGINT NOT NULL, status VARCHAR) PRIMARY KEY (part_id)`); err != nil {
		t.Fatal(err)
	}
	// Committed work that must survive.
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(nil, fmt.Sprintf(`INSERT INTO parts VALUES (%d, 'committed-%d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(nil, `UPDATE parts SET status = 'revised' WHERE part_id < 50`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(nil, `DELETE FROM parts WHERE part_id >= 190`); err != nil {
		t.Fatal(err)
	}
	// In-flight transaction that must vanish.
	inflight := db.Begin()
	if _, err := db.Exec(inflight, `INSERT INTO parts VALUES (999, 'loser')`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(inflight, `UPDATE parts SET status = 'loser' WHERE part_id = 0`); err != nil {
		t.Fatal(err)
	}
	// Crash: WAL reaches the OS, dirty heap pages are abandoned.
	if err := db.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	// (no Close; drop the instance)

	db2, err := Open(dir, Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := mustCount(t, db2, "parts", ""); n != 190 {
		t.Fatalf("rows after recovery = %d, want 190", n)
	}
	if n := mustCount(t, db2, "parts", "status = 'revised'"); n != 50 {
		t.Fatalf("revised rows = %d, want 50", n)
	}
	if n := mustCount(t, db2, "parts", "part_id = 999"); n != 0 {
		t.Fatal("in-flight insert survived the crash")
	}
	if n := mustCount(t, db2, "parts", "part_id = 0 AND status = 'loser'"); n != 0 {
		t.Fatal("in-flight update survived the crash")
	}
	// New transactions get fresh IDs and work.
	if _, err := db2.Exec(nil, `INSERT INTO parts VALUES (999, 'winner')`); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRequiresQuiescence(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	tx := db.Begin()
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint with active txn must fail")
	}
	tx.Commit()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	db := openTestDB(t, Options{LockTimeout: 30 * time.Second})
	createParts(t, db)
	for i := 0; i < 50; i++ {
		db.Exec(nil, fmt.Sprintf(`INSERT INTO parts (part_id, qty) VALUES (%d, %d)`, i, i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, rows, err := db.Query(nil, `SELECT * FROM parts`)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if len(rows) < 50 {
					t.Errorf("reader saw %d rows", len(rows))
					return
				}
			}
		}()
	}
	for i := 50; i < 150; i++ {
		if _, err := db.Exec(nil, fmt.Sprintf(`INSERT INTO parts (part_id, qty) VALUES (%d, %d)`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n := mustCount(t, db, "parts", ""); n != 150 {
		t.Fatalf("rows = %d", n)
	}
}

func TestDropTable(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	db.Exec(nil, `INSERT INTO parts (part_id) VALUES (1)`)
	if err := db.DropTable("parts"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("parts"); err == nil {
		t.Fatal("dropped table still visible")
	}
	if err := db.DropTable("parts"); err == nil {
		t.Fatal("double drop must fail")
	}
	// Name reusable.
	createParts(t, db)
	if n := mustCount(t, db, "parts", ""); n != 0 {
		t.Fatal("recreated table not empty")
	}
}

func TestQueryErrors(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	if _, _, err := db.Query(nil, `SELECT * FROM ghost`); err == nil {
		t.Fatal("unknown table must fail")
	}
	if _, _, err := db.Query(nil, `SELECT ghost FROM parts`); err == nil {
		t.Fatal("unknown column must fail")
	}
	if _, _, err := db.Query(nil, `INSERT INTO parts (part_id) VALUES (1)`); err == nil {
		t.Fatal("Query with non-SELECT must fail")
	}
	if _, err := db.Exec(nil, `SELECT * FROM parts`); err == nil {
		t.Fatal("Exec with SELECT must fail")
	}
}

func TestLockConflictTimesOut(t *testing.T) {
	db := openTestDB(t, Options{LockTimeout: 50 * time.Millisecond})
	createParts(t, db)
	tx1 := db.Begin()
	if _, err := db.Exec(tx1, `INSERT INTO parts (part_id) VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// Key-range locking: a write to a different key proceeds while tx1
	// holds its key, but touching tx1's key waits and times out.
	tx2 := db.Begin()
	if _, err := db.Exec(tx2, `INSERT INTO parts (part_id) VALUES (2)`); err != nil {
		t.Fatalf("disjoint-key insert should not block: %v", err)
	}
	_, err := db.Exec(tx2, `UPDATE parts SET qty = 9 WHERE part_id = 1`)
	if !errors.Is(err, txn.ErrLockTimeout) {
		t.Fatalf("err = %v, want lock timeout", err)
	}
	tx2.Abort()
	tx1.Commit()

	// An unanalyzable predicate falls back to the table lock and
	// conflicts with any concurrent writer.
	tx3 := db.Begin()
	if _, err := db.Exec(tx3, `UPDATE parts SET qty = 1 WHERE part_id = 1`); err != nil {
		t.Fatal(err)
	}
	tx4 := db.Begin()
	_, err = db.Exec(tx4, `UPDATE parts SET qty = 2 WHERE status = 'zzz'`)
	if !errors.Is(err, txn.ErrLockTimeout) {
		t.Fatalf("err = %v, want lock timeout for table fallback", err)
	}
	tx4.Abort()
	tx3.Commit()
}

func TestCreateTableValidation(t *testing.T) {
	db := openTestDB(t, Options{})
	if _, err := db.CreateTable(TableDef{}); err == nil {
		t.Fatal("empty def must fail")
	}
	schema := catalog.NewSchema(catalog.Column{Name: "a", Type: catalog.TypeInt64})
	if _, err := db.CreateTable(TableDef{Name: "t", Schema: schema}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(TableDef{Name: "T", Schema: schema}); err == nil {
		t.Fatal("case-insensitive duplicate must fail")
	}
	// Timestamp column must be TIMESTAMP-typed.
	if _, err := db.CreateTable(TableDef{Name: "u", Schema: schema, TimestampCol: "a"}); err == nil {
		t.Fatal("non-TIMESTAMP ts column must fail")
	}
	// PK column must exist.
	if _, err := db.CreateTable(TableDef{Name: "v", Schema: schema, PrimaryKey: "ghost"}); err == nil {
		t.Fatal("missing PK column must fail")
	}
}

func TestScanTable(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	db.Exec(nil, `INSERT INTO parts (part_id) VALUES (1), (2), (3)`)
	var sum int64
	if err := db.ScanTable(nil, "parts", func(tup catalog.Tuple) error {
		sum += tup[0].Int()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 6 {
		t.Fatalf("sum = %d", sum)
	}
}

// TestFailedCommitRunsAbortHooks: a Commit that cannot append its
// commit record rolls the transaction back, and must tell the abort
// hooks so — the op logs resolve their in-flight seqs there, and an
// unresolved seq would hold the shipping horizon back forever.
func TestFailedCommitRunsAbortHooks(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	tx := db.Begin()
	if _, err := db.Exec(tx, `INSERT INTO parts (part_id, qty) VALUES (1, 1)`); err != nil {
		t.Fatal(err)
	}
	committed, aborted := false, false
	tx.OnCommit(func() error { committed = true; return nil })
	tx.OnAbort(func() { aborted = true })
	if err := db.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded against a closed WAL")
	}
	if committed || !aborted {
		t.Fatalf("after a failed commit: commit hook ran = %v, abort hook ran = %v", committed, aborted)
	}
}

// TestRollbackRestoresDeleteBesideGrowingUpdate deletes a row in one
// transaction while another grows a row on the same full page and
// commits. Rolling the first back — by Abort, or as a loser of crash
// recovery — must put the deleted row back: the growing update may not
// take that row's bytes.
func TestRollbackRestoresDeleteBesideGrowingUpdate(t *testing.T) {
	for _, crash := range []bool{false, true} {
		dir := t.TempDir()
		clock := newClock()
		db, err := Open(dir, Options{Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(nil, `CREATE TABLE docs (id BIGINT NOT NULL, body VARCHAR) PRIMARY KEY (id)`); err != nil {
			t.Fatal(err)
		}
		// Eight ≈1000-byte records fill one 8 KB page.
		for i := 1; i <= 8; i++ {
			body := strings.Repeat(string(rune('a'+i)), 980)
			if _, err := db.Exec(nil, fmt.Sprintf(`INSERT INTO docs (id, body) VALUES (%d, '%s')`, i, body)); err != nil {
				t.Fatal(err)
			}
		}
		tx1 := db.Begin()
		if _, err := db.Exec(tx1, `DELETE FROM docs WHERE id = 2`); err != nil {
			t.Fatal(err)
		}
		tx2 := db.Begin()
		if _, err := db.Exec(tx2, fmt.Sprintf(`UPDATE docs SET body = '%s' WHERE id = 1`, strings.Repeat("G", 1880))); err != nil {
			t.Fatal(err)
		}
		if err := tx2.Commit(); err != nil {
			t.Fatal(err)
		}
		if crash {
			// WAL reaches the OS, the instance is dropped, tx1 is a loser.
			if err := db.WAL().Sync(); err != nil {
				t.Fatal(err)
			}
			if db, err = Open(dir, Options{Now: clock.Now}); err != nil {
				t.Fatalf("recovery: %v", err)
			}
		} else if err := tx1.Abort(); err != nil {
			t.Fatalf("abort: %v", err)
		}
		_, rows, err := db.Query(nil, `SELECT body FROM docs WHERE id = 2`)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].String() != strings.Repeat("c", 980) {
			t.Fatalf("crash=%v: row 2 after the rollback: %v", crash, rows)
		}
		if n := mustCount(t, db, "docs", ""); n != 8 {
			t.Fatalf("crash=%v: %d rows after the rollback, want 8", crash, n)
		}
		db.Close()
	}
}
