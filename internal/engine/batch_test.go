package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"opdelta/internal/catalog"
	"opdelta/internal/fault"
	"opdelta/internal/storage"
	"opdelta/internal/wal"
)

// rowAtATime installs a row trigger that does nothing on every table of
// db: a table with row triggers is written in batches of one.
func rowAtATime(t *testing.T, db *DB) {
	t.Helper()
	for _, name := range db.Tables() {
		if err := db.CreateTrigger(name, Trigger{
			Name: "row_at_a_time", OnInsert: true, OnUpdate: true, OnDelete: true,
			Fn: func(*Tx, TriggerEvent) error { return nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTriggerTablesWriteRowByRow pins the seam the batch reference
// tests rely on: on a table with a row trigger, each row's trigger
// fires before the next row of its statement is written.
func TestTriggerTablesWriteRowByRow(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	tbl, _ := db.Table("parts")
	// written counts the rows a statement has written so far: stored
	// rows for INSERT and DELETE, rows already updated for UPDATE.
	written := func(op TriggerOp) int {
		if op != TrigUpdate {
			return int(tbl.NumRows())
		}
		n := 0
		tbl.Heap().Scan(func(_ storage.RID, rec []byte) (bool, error) {
			if bytes.Contains(rec, []byte("zzz")) {
				n++
			}
			return true, nil
		})
		return n
	}
	var seen []string
	if err := db.CreateTrigger("parts", Trigger{
		Name: "probe", OnInsert: true, OnUpdate: true, OnDelete: true,
		Fn: func(tx *Tx, ev TriggerEvent) error {
			seen = append(seen, fmt.Sprintf("%s:%d", ev.Op, written(ev.Op)))
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`INSERT INTO parts (part_id, status) VALUES (1, 'a'), (2, 'b'), (3, 'c')`,
		`UPDATE parts SET status = 'zzz' WHERE part_id <= 3`,
		`DELETE FROM parts WHERE part_id <= 2`,
	} {
		if _, err := db.Exec(nil, sql); err != nil {
			t.Fatal(err)
		}
	}
	want := "INSERT:1 INSERT:2 INSERT:3 UPDATE:1 UPDATE:2 UPDATE:3 DELETE:2 DELETE:1"
	if got := strings.Join(seen, " "); got != want {
		t.Fatalf("row triggers saw %s, want %s", got, want)
	}
}

// TestBatchAcceptsAndRejectsAsRowLoop runs seeded statement streams —
// PK shifts onto live and free keys, NULL keys, duplicate keys within a
// statement and against the table, SET lists that fail on some row,
// inserted and updated records too large for a page —
// against a batching engine and a row-at-a-time one. Every statement
// must succeed or fail alike, with the same error, and leave the same
// rows behind (a failed statement keeps the rows before the failing
// one, as the row loop did); each transaction's log records must match
// as a multiset.
func TestBatchAcceptsAndRejectsAsRowLoop(t *testing.T) {
	// status is a short status, now and then one whose record outgrows a
	// page.
	status := func(rng *rand.Rand, short string) string {
		if rng.Intn(12) == 0 {
			return strings.Repeat("x", storage.PageSize+800)
		}
		return short
	}
	oversized := 0
	for seed := int64(1); seed <= 20; seed++ {
		batched, rows := openTestDB(t, Options{}), openTestDB(t, Options{})
		for _, db := range []*DB{batched, rows} {
			createParts(t, db)
		}
		rowAtATime(t, rows)
		rng := rand.New(rand.NewSource(seed))
		stmt := func() string {
			lo := rng.Intn(40)
			hi := lo + rng.Intn(12)
			switch rng.Intn(9) {
			case 0, 1:
				var vals []string
				for i := 0; i < 1+rng.Intn(6); i++ {
					k := fmt.Sprint(rng.Intn(50))
					if rng.Intn(15) == 0 {
						k = "NULL"
					}
					vals = append(vals, fmt.Sprintf("(%s, '%s', %d)", k, status(rng, fmt.Sprintf("s%d", rng.Intn(5))), rng.Intn(100)))
				}
				return "INSERT INTO parts (part_id, status, qty) VALUES " + strings.Join(vals, ", ")
			case 2:
				return fmt.Sprintf("UPDATE parts SET part_id = part_id + %d WHERE part_id BETWEEN %d AND %d", 1+rng.Intn(2), lo, hi)
			case 3:
				return fmt.Sprintf("UPDATE parts SET part_id = part_id - 1 WHERE part_id BETWEEN %d AND %d", lo, hi)
			case 4:
				return fmt.Sprintf("UPDATE parts SET part_id = NULL WHERE part_id = %d", lo)
			case 5:
				// qty / (qty - k) fails on the row whose qty is k.
				return fmt.Sprintf("UPDATE parts SET qty = qty / (qty - %d) WHERE part_id BETWEEN %d AND %d", rng.Intn(100), lo, hi)
			case 6:
				return fmt.Sprintf("UPDATE parts SET status = '%s' WHERE part_id BETWEEN %d AND %d", status(rng, strings.Repeat("x", rng.Intn(300))), lo, hi)
			case 7:
				return fmt.Sprintf("DELETE FROM parts WHERE part_id BETWEEN %d AND %d", lo, hi)
			default:
				return fmt.Sprintf("UPDATE parts SET qty = qty + 1 WHERE status = 's%d'", rng.Intn(5))
			}
		}
		rejected := 0
		for txn := 0; txn < 25; txn++ {
			txA, txB := batched.Begin(), rows.Begin()
			for s := 0; s < 1+rng.Intn(4); s++ {
				sql := stmt()
				_, errA := batched.Exec(txA, sql)
				_, errB := rows.Exec(txB, sql)
				if fmt.Sprint(errA) != fmt.Sprint(errB) {
					t.Fatalf("seed %d: %s\n batched: %v\n rows:    %v", seed, sql, errA, errB)
				}
				if errA != nil {
					rejected++
					if strings.Contains(errA.Error(), "exceeds page capacity") {
						oversized++
					}
				}
				if a, b := txImage(t, batched, txA), txImage(t, rows, txB); a != b {
					t.Fatalf("seed %d: after %s (err %v):\n batched %s\n rows    %s", seed, sql, errA, a, b)
				}
			}
			if rng.Intn(4) == 0 {
				txA.Abort()
				txB.Abort()
			} else {
				if err := txA.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := txB.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if a, b := txImage(t, batched, nil), txImage(t, rows, nil); a != b {
				t.Fatalf("seed %d: after transaction %d:\n batched %s\n rows    %s", seed, txn, a, b)
			}
		}
		if a, b := logImage(t, batched), logImage(t, rows); a != b {
			t.Fatalf("seed %d: log records differ:\n batched %s\n rows    %s", seed, a, b)
		}
		if rejected == 0 {
			t.Fatalf("seed %d: no statement was rejected; the stream tests nothing", seed)
		}
	}
	if oversized == 0 {
		t.Fatal("no statement was rejected for a record larger than a page")
	}
}

// TestHeapFailureDoomsTransaction: when the heap fails partway through
// a batch — here the file cannot grow for the statement's second page —
// the rows already written are in the heap but not in the indexes, so
// the transaction takes no further statement and its commit rolls back.
func TestHeapFailureDoomsTransaction(t *testing.T) {
	fs := fault.NewSimFS(1)
	db, err := Open("/db", Options{FS: fs, Now: newClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	createParts(t, db)
	if _, err := db.Exec(nil, `INSERT INTO parts (part_id, status) VALUES (1, 'a'), (2, 'b')`); err != nil {
		t.Fatal(err)
	}
	before := txImage(t, db, nil)
	var vals []string
	for k := 100; k < 120; k++ {
		vals = append(vals, fmt.Sprintf("(%d, '%s')", k, strings.Repeat("v", 700)))
	}
	tx := db.Begin()
	fs.SetScript(&fault.Script{DiskLimit: 1}) // no file may grow
	if _, err := db.Exec(tx, "INSERT INTO parts (part_id, status) VALUES "+strings.Join(vals, ", ")); !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("statement over two pages with a full disk: %v", err)
	}
	fs.SetScript(nil)
	tbl, _ := db.Table("parts")
	if n := tbl.NumRows(); n <= 2 {
		t.Fatalf("%d rows stored; the failed batch should have written its first page", n)
	}
	if _, err := db.Exec(tx, `INSERT INTO parts (part_id, status) VALUES (100, 'again')`); err == nil {
		t.Fatal("a doomed transaction took another statement")
	}
	if _, _, err := db.Query(tx, "SELECT part_id FROM parts"); err == nil {
		t.Fatal("a doomed transaction took a query")
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("a doomed transaction committed")
	}
	if got := txImage(t, db, nil); got != before {
		t.Fatalf("after the rollback: %s, want %s", got, before)
	}
	if _, err := db.Exec(nil, `INSERT INTO parts (part_id, status) VALUES (100, 'again')`); err != nil {
		t.Fatal(err)
	}
}

// txImage renders parts as tx sees it, checking that the primary-key
// index holds exactly its rows.
func txImage(t *testing.T, db *DB, tx *Tx) string {
	t.Helper()
	_, tups, err := db.Query(tx, "SELECT part_id, status, qty FROM parts")
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("parts")
	out := make([]string, len(tups))
	for i, tup := range tups {
		if _, ok := tbl.LookupPK(tup[0]); !ok {
			t.Fatalf("row %v has no index entry", tup)
		}
		out[i] = tup.String()
	}
	entries := 0
	tbl.RangePK(nil, nil, func(catalog.Value, storage.RID) bool { entries++; return true })
	if entries != len(tups) {
		t.Fatalf("%d index entries for %d rows", entries, len(tups))
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// logImage renders db's log records by transaction, each transaction's
// records as a sorted multiset without LSNs and RIDs.
func logImage(t *testing.T, db *DB) string {
	t.Helper()
	if err := db.WAL().Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.ReadAll(db.WALDir())
	if err != nil {
		t.Fatal(err)
	}
	byTxn := map[uint64][]string{}
	var txns []uint64
	for _, r := range recs {
		if _, ok := byTxn[r.Txn]; !ok {
			txns = append(txns, r.Txn)
		}
		byTxn[r.Txn] = append(byTxn[r.Txn], fmt.Sprintf("%v/%s/%x/%x", r.Type, r.Table, r.Before, r.After))
	}
	var b strings.Builder
	for _, id := range txns {
		sort.Strings(byTxn[id])
		fmt.Fprintf(&b, "%d[%s] ", id, strings.Join(byTxn[id], " "))
	}
	return b.String()
}

// TestBatchVisitsEachPageOnce: an UPDATE over rows that span pages
// fetches each page once, where the row loop fetched it once per row.
func TestBatchVisitsEachPageOnce(t *testing.T) {
	db := openTestDB(t, Options{})
	if _, err := db.Exec(nil, `CREATE TABLE docs (id BIGINT NOT NULL, body VARCHAR) PRIMARY KEY (id)`); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for i := 0; i < 40; i++ {
		vals = append(vals, fmt.Sprintf("(%d, '%s')", i, strings.Repeat("b", 700)))
	}
	if _, err := db.Exec(nil, "INSERT INTO docs (id, body) VALUES "+strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("docs")
	pages := int(tbl.Heap().NumPages())
	if pages < 3 {
		t.Fatalf("40 rows on %d pages; want several", pages)
	}
	fetches := func() uint64 {
		st := tbl.Heap().Pool().Stats()
		return st.Hits + st.Misses
	}
	for _, sql := range []string{
		`UPDATE docs SET body = 'short' WHERE id BETWEEN 0 AND 39`,
		`DELETE FROM docs WHERE id BETWEEN 0 AND 39`,
	} {
		before := fetches()
		if _, err := db.Exec(nil, sql); err != nil {
			t.Fatal(err)
		}
		// One visit to read the targets and one to write them, per page.
		if n := fetches() - before; n != uint64(2*pages) {
			t.Fatalf("%s: %d page fetches over %d pages, want %d", sql, n, pages, 2*pages)
		}
	}
}

// TestKeyedBatchLocksOnce: a keyed batch over consecutive integer keys
// takes one range lock, and its statement hooks fire once.
func TestKeyedBatchLocksOnce(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	tbl, _ := db.Table("parts")
	fired := 0
	if err := db.CreateStatementHook("parts", StatementHook{
		Name: "count", Fn: func(*Tx, *StatementDelta) error { fired++; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	var tups []catalog.Tuple
	for k := int64(10); k < 60; k++ {
		tups = append(tups, catalog.Tuple{catalog.NewInt(k), catalog.NewString("n"), catalog.NewInt(k), catalog.NewTime(db.Now())})
	}
	before := db.LockTableStats()["parts"].RangeAcquires
	if err := tx.InsertBatch(tbl, tups); err != nil {
		t.Fatal(err)
	}
	if n := db.LockTableStats()["parts"].RangeAcquires - before; n != 1 {
		t.Fatalf("50 consecutive keys took %d range locks, want 1", n)
	}
	keys := make([]catalog.Value, 0, len(tups))
	for _, tup := range tups {
		keys = append(keys, tup[0])
	}
	found, err := tx.RowsByKeys(tbl, 0, append(keys, catalog.NewInt(999), catalog.NewNull(catalog.TypeInt64)), true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if len(found[i]) != 1 || !catalog.Equal(found[i][0].Tuple[0], keys[i]) {
			t.Fatalf("key %v found %v", keys[i], found[i])
		}
	}
	if len(found[len(keys)]) != 0 || len(found[len(keys)+1]) != 0 {
		t.Fatalf("absent and NULL keys found rows: %v %v", found[len(keys)], found[len(keys)+1])
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("statement hooks fired %d times for one batch", fired)
	}
}

// TestRowsOutliveTheirPages: rows taken by RowsByKeys and ScanRows hold
// their string and bytes values after the rows are overwritten in place
// while their page is still in the pool, and after their pages are
// evicted and read back. The values share each row's own record copy,
// never the page.
func TestRowsOutliveTheirPages(t *testing.T) {
	db := openTestDB(t, Options{PoolPages: 2})
	if _, err := db.Exec(nil, `CREATE TABLE docs (id BIGINT NOT NULL, body VARCHAR, blob VARBINARY) PRIMARY KEY (id)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("docs")
	const n = 200 // ≈ 40 KB of rows: several times the two-page pool
	body := func(i int, gen byte) string { return fmt.Sprintf("body-%04d-%s", i, strings.Repeat(string(gen), 80)) }
	blob := func(i int, gen byte) []byte {
		return []byte(fmt.Sprintf("blob-%04d-%s", i, strings.Repeat(string(gen), 80)))
	}
	tuple := func(i int, gen byte) catalog.Tuple {
		return catalog.Tuple{catalog.NewInt(int64(i)), catalog.NewString(body(i, gen)), catalog.NewBytes(blob(i, gen))}
	}
	tups := make([]catalog.Tuple, n)
	for i := range tups {
		tups[i] = tuple(i, 'a')
	}
	tx := db.Begin()
	if err := tx.InsertBatch(tbl, tups); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = db.Begin()
	var scanned []Row
	if err := tx.ScanRows(tbl, true, func(r Row) (bool, error) {
		scanned = append(scanned, r)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != n {
		t.Fatalf("scan found %d rows, want %d", len(scanned), n)
	}
	// The scan ended on the last row's page, which is still in the pool.
	last := scanned[n-1:]
	lastKey := int(last[0].Tuple[0].Int())
	if err := tx.UpdateBatch(tbl, last, []catalog.Tuple{tuple(lastKey, 'y')}); err != nil {
		t.Fatal(err)
	}
	// Each row is read and at once overwritten in its resident page, and
	// the walk over the table evicts every page on the way.
	misses := tbl.Heap().Pool().Stats().Misses
	keyed := make([]Row, n)
	for i := range keyed {
		found, err := tx.RowsByKeys(tbl, 0, []catalog.Value{catalog.NewInt(int64(i))}, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(found[0]) != 1 {
			t.Fatalf("key %d found %d rows", i, len(found[0]))
		}
		keyed[i] = found[0][0]
		if err := tx.UpdateBatch(tbl, found[0], []catalog.Tuple{tuple(i, 'z')}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Heap().Pool().Stats().Misses == misses {
		t.Fatal("the updates reread no page; the pool is too large for the test")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check := func(r Row, gen byte) {
		t.Helper()
		i := int(r.Tuple[0].Int())
		if got := r.Tuple[1].Str(); got != body(i, gen) {
			t.Fatalf("row %d body now %q", i, got)
		}
		if got := r.Tuple[2].BytesVal(); !bytes.Equal(got, blob(i, gen)) {
			t.Fatalf("row %d blob now %q", i, got)
		}
	}
	for _, r := range scanned {
		check(r, 'a')
	}
	for i, r := range keyed {
		if i == lastKey {
			check(r, 'y') // read after the scan's row was overwritten
		} else {
			check(r, 'a')
		}
	}
}
