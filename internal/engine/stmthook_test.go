package engine

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"opdelta/internal/catalog"
)

// hookLog records row triggers and statement hooks in firing order.
type hookLog struct{ events []string }

func (l *hookLog) install(t *testing.T, db *DB) {
	t.Helper()
	if err := db.CreateTrigger("parts", Trigger{
		Name: "row", OnInsert: true, OnDelete: true, OnUpdate: true,
		Fn: func(_ *Tx, ev TriggerEvent) error {
			l.events = append(l.events, "row:"+ev.Op.String())
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateStatementHook("parts", StatementHook{
		Name: "stmt",
		Fn: func(_ *Tx, d *StatementDelta) error {
			ids := func(rows []catalog.Tuple, col int) string {
				var b strings.Builder
				for _, r := range rows {
					fmt.Fprintf(&b, "%v,", r[col])
				}
				return b.String()
			}
			l.events = append(l.events, fmt.Sprintf("stmt:%s before[%s] after[%s]",
				d.Op, ids(d.Before, 1), ids(d.After, 1)))
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
}

func (l *hookLog) take() []string {
	out := l.events
	l.events = nil
	return out
}

// TestStatementHookFiresOncePerStatement pins the hook contract: one
// delivery per statement, after the last row's row trigger, carrying
// every changed row in statement order; nothing for a statement that
// changed no row; a batch of one for InsertTuple.
func TestStatementHookFiresOncePerStatement(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	var log hookLog
	log.install(t, db)
	exec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(nil, sql); err != nil {
			t.Fatal(err)
		}
	}
	check := func(want ...string) {
		t.Helper()
		if got := log.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("events:\n got  %q\n want %q", got, want)
		}
	}
	exec(`INSERT INTO parts (part_id, status) VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	check("row:INSERT", "row:INSERT", "row:INSERT", "stmt:INSERT before[] after[a,b,c,]")
	exec(`UPDATE parts SET status = 'z' WHERE part_id BETWEEN 2 AND 3`)
	check("row:UPDATE", "row:UPDATE", "stmt:UPDATE before[b,c,] after[z,z,]")
	exec(`UPDATE parts SET status = 'none' WHERE part_id > 100`)
	check()
	exec(`DELETE FROM parts WHERE part_id > 100`)
	check()
	exec(`DELETE FROM parts WHERE part_id <= 2`)
	check("row:DELETE", "row:DELETE", "stmt:DELETE before[a,z,] after[]")
	tup := catalog.Tuple{catalog.NewInt(9), catalog.NewString("t"), catalog.NewNull(catalog.TypeInt64), catalog.NewTime(db.Now())}
	if err := db.InsertTuple(nil, "parts", tup); err != nil {
		t.Fatal(err)
	}
	check("row:INSERT", "stmt:INSERT before[] after[t,]")
}

// TestStatementDeltaOnlyCollectedForHooks: a table without a statement
// hook never gets a batch allocated, which is what keeps hookless
// workloads (the source side, replica-only warehouses) off this path.
func TestStatementDeltaOnlyCollectedForHooks(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	tbl, err := db.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	if d := tbl.newDelta(TrigUpdate, 200); d != nil {
		t.Fatalf("hookless table allocated a batch: %+v", d)
	}
	var none *StatementDelta
	none.add(catalog.Tuple{}, catalog.Tuple{}) // must be a no-op, not a panic
	noop := StatementHook{Name: "h", Fn: func(*Tx, *StatementDelta) error { return nil }}
	if err := db.CreateStatementHook("parts", noop); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateStatementHook("parts", noop); err == nil {
		t.Fatal("duplicate hook name accepted")
	}
	if d := tbl.newDelta(TrigUpdate, 200); d == nil || cap(d.Before) != 200 || cap(d.After) != 200 {
		t.Fatalf("hooked table: batch = %+v", d)
	}
	if err := db.DropStatementHook("parts", "h"); err != nil {
		t.Fatal(err)
	}
	if d := tbl.newDelta(TrigDelete, 1); d != nil {
		t.Fatal("batch allocated after the last hook was dropped")
	}
}

// TestStatementHookErrorFailsStatement: the hook runs in the user
// transaction, so its error aborts an autocommit statement whole.
func TestStatementHookErrorFailsStatement(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	if _, err := db.Exec(nil, `INSERT INTO parts (part_id, status) VALUES (1, 'a'), (2, 'b')`); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := db.CreateStatementHook("parts", StatementHook{
		Name: "fail", Fn: func(*Tx, *StatementDelta) error { return boom },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(nil, `UPDATE parts SET status = 'x' WHERE part_id >= 1`); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the hook's", err)
	}
	_, rows, err := db.Query(nil, `SELECT part_id, status FROM parts ORDER BY part_id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][1].Str() != "a" || rows[1][1].Str() != "b" {
		t.Fatalf("statement not rolled back: %v", rows)
	}
}

// TestKeyedRowAccess drives the handle-based primitives through every
// lookup path (PK index, secondary index, scan) and every write, and
// checks they share the SQL path's undo: an abort restores everything.
func TestKeyedRowAccess(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	if _, err := db.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES
		(1, 'a', 10), (2, 'b', 20), (3, 'a', 30), (4, NULL, 40)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("parts")
	const idCol, statusCol = 0, 1
	ids := func(rows []Row) string {
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "%d,", r.Tuple[idCol].Int())
		}
		return b.String()
	}

	tx := db.Begin()
	lookup := func(col int, key catalog.Value, want string) []Row {
		t.Helper()
		found, err := tx.RowsByKeys(tbl, col, []catalog.Value{key}, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(found[0]); got != want {
			t.Fatalf("RowsByKeys(col %d, %v) = %q, want %q", col, key, got, want)
		}
		return found[0]
	}
	lookup(idCol, catalog.NewInt(2), "2,")
	lookup(idCol, catalog.NewInt(99), "")
	lookup(statusCol, catalog.NewString("a"), "1,3,") // scan
	lookup(statusCol, catalog.NewNull(catalog.TypeString), "")
	// CREATE INDEX takes the table's exclusive lock, so the transaction
	// holding it ends first.
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSecondaryIndex("parts", "status"); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	lookup(statusCol, catalog.NewString("a"), "1,3,") // index

	// Under the table X lock the lookups took, keyed calls are no-ops at
	// the lock manager.
	grants := db.LockStats().Grants
	row := lookup(idCol, catalog.NewInt(1), "1,")[0]
	after := row.Tuple.Clone()
	after[statusCol] = catalog.NewString("b")
	if err := tx.UpdateRow(tbl, row, after); err != nil {
		t.Fatal(err)
	}
	lookup(statusCol, catalog.NewString("b"), "1,2,")
	moved := lookup(idCol, catalog.NewInt(3), "3,")[0]
	shifted := moved.Tuple.Clone()
	shifted[idCol] = catalog.NewInt(7)
	if err := tx.UpdateRow(tbl, moved, shifted); err != nil {
		t.Fatal(err)
	}
	lookup(idCol, catalog.NewInt(3), "")
	lookup(idCol, catalog.NewInt(7), "7,")
	clash := lookup(idCol, catalog.NewInt(7), "7,")[0]
	dup := clash.Tuple.Clone()
	dup[idCol] = catalog.NewInt(2)
	if err := tx.UpdateRow(tbl, clash, dup); err == nil {
		t.Fatal("update onto a live primary key accepted")
	}
	if err := tx.DeleteRow(tbl, lookup(idCol, catalog.NewInt(2), "2,")[0]); err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertRow(tbl, catalog.Tuple{catalog.NewInt(5), catalog.NewString("n"),
		catalog.NewInt(50), catalog.NewTime(db.Now())}); err != nil {
		t.Fatal(err)
	}
	var scanned []Row
	if err := tx.ScanRows(tbl, false, func(r Row) (bool, error) {
		scanned = append(scanned, r)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != 4 {
		t.Fatalf("scan saw %q", ids(scanned))
	}
	if got := db.LockStats().Grants; got != grants {
		t.Fatalf("keyed access under a table X lock was granted %d more locks", got-grants)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	_, rows, err := db.Query(nil, `SELECT part_id, status, qty FROM parts ORDER BY part_id`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.String())
	}
	want := []string{`(1, a, 10)`, `(2, b, 20)`, `(3, a, 30)`, `(4, \N, 40)`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after abort:\n got  %v\n want %v", got, want)
	}
	// The indexes rolled back with the heap.
	tx = db.Begin()
	defer tx.Commit()
	lookup(statusCol, catalog.NewString("a"), "1,3,")
	lookup(idCol, catalog.NewInt(7), "")

	snap := db.BeginSnapshot()
	defer snap.Commit()
	if _, err := snap.RowsByKeys(tbl, idCol, []catalog.Value{catalog.NewInt(1)}, false); err == nil {
		t.Fatal("keyed access on a snapshot transaction accepted")
	}
}

// TestUpdateOntoLiveKeyLeavesNoTrace: an UPDATE that moves a row onto a
// key another row holds is refused before the heap is touched, so the
// transaction's rollback has nothing it cannot undo. (It used to fail
// after the heap write, with no undo record: the row kept the colliding
// key under its old index entry.)
func TestUpdateOntoLiveKeyLeavesNoTrace(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	if _, err := db.Exec(nil, `INSERT INTO parts (part_id, status) VALUES (14, 'a'), (16, 'b')`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(nil, `UPDATE parts SET part_id = part_id + 2 WHERE part_id = 14`); err == nil ||
		!strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("err = %v, want a duplicate-key rejection", err)
	}
	tx := db.Begin()
	for i := 0; i < 2; i++ { // the second finds nothing, and says so quietly
		if _, err := db.Exec(tx, `DELETE FROM parts WHERE part_id = 14`); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	_, rows, err := db.Query(nil, `SELECT part_id, status FROM parts`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 16 || rows[0][1].Str() != "b" {
		t.Fatalf("rows = %v, want only (16, b)", rows)
	}
}
