package engine

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"opdelta/internal/fault"
)

// commitRows runs sql in its own transaction and returns the commit LSN.
func commitRows(t *testing.T, db *DB, sql string) uint64 {
	t.Helper()
	tx := db.Begin()
	if _, err := db.Exec(tx, sql); err != nil {
		tx.Abort()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tx.CommitLSN()
}

func TestSnapshotIgnoresUncommittedWrites(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	commitRows(t, db, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 10), (2, 'a', 20), (3, 'a', 30)`)

	// An open writer mutates all three rows plus inserts a fourth.
	w := db.Begin()
	for _, sql := range []string{
		`UPDATE parts SET qty = 99 WHERE part_id = 1`,
		`DELETE FROM parts WHERE part_id = 2`,
		`INSERT INTO parts (part_id, status, qty) VALUES (4, 'new', 40)`,
	} {
		if _, err := db.Exec(w, sql); err != nil {
			t.Fatal(err)
		}
	}

	stx := db.BeginSnapshot()
	_, rows, err := db.Query(stx, `SELECT part_id, qty FROM parts`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{1: 10, 2: 20, 3: 30}
	if len(rows) != len(want) {
		t.Fatalf("snapshot saw %d rows, want %d: %v", len(rows), len(want), rows)
	}
	for _, r := range rows {
		if want[r[0].Int()] != r[1].Int() {
			t.Fatalf("snapshot row %v, want qty %d", r, want[r[0].Int()])
		}
	}
	// Point and range reads resolve through the same visibility rule.
	_, rows, err = db.Query(stx, `SELECT qty FROM parts WHERE part_id = 2`)
	if err != nil || len(rows) != 1 || rows[0][0].Int() != 20 {
		t.Fatalf("snapshot point read = %v, %v", rows, err)
	}
	_, rows, err = db.Query(stx, `SELECT part_id FROM parts WHERE part_id BETWEEN 1 AND 4`)
	if err != nil || len(rows) != 3 {
		t.Fatalf("snapshot range read = %v, %v", rows, err)
	}

	// The writer commits; the open snapshot stays pinned at its horizon.
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	_, rows, err = db.Query(stx, `SELECT part_id FROM parts`)
	if err != nil || len(rows) != 3 {
		t.Fatalf("pinned snapshot after writer commit = %v, %v", rows, err)
	}
	if err := stx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A fresh snapshot sees the committed state.
	stx2 := db.BeginSnapshot()
	defer stx2.Commit()
	_, rows, err = db.Query(stx2, `SELECT part_id, qty FROM parts`)
	if err != nil {
		t.Fatal(err)
	}
	want = map[int64]int64{1: 99, 3: 30, 4: 40}
	if len(rows) != len(want) {
		t.Fatalf("fresh snapshot saw %v, want keys %v", rows, want)
	}
	for _, r := range rows {
		if want[r[0].Int()] != r[1].Int() {
			t.Fatalf("fresh snapshot row %v", r)
		}
	}
}

func TestSnapshotRejectsWrites(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	stx := db.BeginSnapshot()
	defer stx.Commit()
	if _, err := db.Exec(stx, `INSERT INTO parts (part_id) VALUES (1)`); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("snapshot write err = %v, want read-only rejection", err)
	}
	if err := stx.LockTablesExclusive("parts"); err == nil {
		t.Fatal("snapshot LockTablesExclusive must fail")
	}
}

func TestSnapshotAggregates(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	commitRows(t, db, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 10), (2, 'b', 20)`)
	stx := db.BeginSnapshot()
	commitRows(t, db, `UPDATE parts SET qty = 1000 WHERE part_id = 1`)
	_, rows, err := db.Query(stx, `SELECT SUM(qty) FROM parts`)
	if err != nil || len(rows) != 1 || rows[0][0].Int() != 30 {
		t.Fatalf("snapshot SUM = %v, %v (want 30)", rows, err)
	}
	stx.Commit()
	_, rows, err = db.Query(nil, `SELECT SUM(qty) FROM parts`)
	if err != nil || rows[0][0].Int() != 1020 {
		t.Fatalf("current SUM = %v, %v (want 1020)", rows, err)
	}
}

func TestAsOfTimeTravel(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	lsn1 := commitRows(t, db, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'v1', 10)`)
	lsn2 := commitRows(t, db, `UPDATE parts SET status = 'v2', qty = 20 WHERE part_id = 1`)
	lsn3 := commitRows(t, db, `DELETE FROM parts WHERE part_id = 1`)
	if lsn1 == 0 || lsn2 <= lsn1 || lsn3 <= lsn2 {
		t.Fatalf("commit LSNs not increasing: %d %d %d", lsn1, lsn2, lsn3)
	}
	wantAt := func(lsn uint64, wantStatus string, wantQty int64, wantRows int) {
		t.Helper()
		_, rows, err := db.Query(nil, fmt.Sprintf(`SELECT status, qty FROM parts AS OF %d`, lsn))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != wantRows {
			t.Fatalf("AS OF %d: %d rows, want %d", lsn, len(rows), wantRows)
		}
		if wantRows == 1 && (rows[0][0].Str() != wantStatus || rows[0][1].Int() != wantQty) {
			t.Fatalf("AS OF %d = %v, want (%s, %d)", lsn, rows[0], wantStatus, wantQty)
		}
	}
	wantAt(lsn1, "v1", 10, 1)
	wantAt(lsn2, "v2", 20, 1)
	wantAt(lsn3, "", 0, 0)
	// Between two commits reads the earlier state.
	if lsn2 > lsn1+1 {
		wantAt(lsn1+1, "v1", 10, 1)
	}
	// Aggregates travel too.
	_, rows, err := db.Query(nil, fmt.Sprintf(`SELECT COUNT(*) FROM parts AS OF %d`, lsn2))
	if err != nil || rows[0][0].Int() != 1 {
		t.Fatalf("COUNT AS OF %d = %v, %v", lsn2, rows, err)
	}
}

func TestAsOfValidation(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	lsn := commitRows(t, db, `INSERT INTO parts (part_id) VALUES (1)`)
	// The future is not readable.
	if _, _, err := db.Query(nil, fmt.Sprintf(`SELECT * FROM parts AS OF %d`, lsn+1000)); err == nil ||
		!strings.Contains(err.Error(), "ahead of the current commit horizon") {
		t.Fatalf("future AS OF err = %v", err)
	}
	// AS OF inside a non-snapshot transaction is rejected.
	tx := db.Begin()
	defer tx.Abort()
	if _, _, err := db.Query(tx, fmt.Sprintf(`SELECT * FROM parts AS OF %d`, lsn)); err == nil {
		t.Fatal("AS OF inside an ordinary transaction must fail")
	}
}

func TestAsOfTooOldAfterGC(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	lsn1 := commitRows(t, db, `INSERT INTO parts (part_id, qty) VALUES (1, 0)`)
	for i := 1; i <= 5; i++ {
		commitRows(t, db, fmt.Sprintf(`UPDATE parts SET qty = %d WHERE part_id = 1`, i))
	}
	if db.VersionCount() == 0 {
		t.Fatal("expected version chains before GC")
	}
	// No snapshots active: a full sweep prunes everything and raises the
	// AS OF floor to the newest pruned anchor.
	db.VersionGC()
	if n := db.VersionCount(); n != 0 {
		t.Fatalf("versions after quiescent GC = %d, want 0", n)
	}
	if _, _, err := db.Query(nil, fmt.Sprintf(`SELECT * FROM parts AS OF %d`, lsn1)); err == nil ||
		!strings.Contains(err.Error(), "snapshot too old") {
		t.Fatalf("pruned AS OF err = %v, want snapshot too old", err)
	}
	// The current state is still readable at the horizon.
	stx := db.BeginSnapshot()
	defer stx.Commit()
	_, rows, err := db.Query(stx, `SELECT qty FROM parts`)
	if err != nil || len(rows) != 1 || rows[0][0].Int() != 5 {
		t.Fatalf("post-GC snapshot = %v, %v", rows, err)
	}
}

func TestActiveSnapshotPinsVersionsAgainstGC(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	commitRows(t, db, `INSERT INTO parts (part_id, qty) VALUES (1, 10)`)
	db.VersionGC()
	stx := db.BeginSnapshot()
	commitRows(t, db, `UPDATE parts SET qty = 20 WHERE part_id = 1`)
	// GC must keep the pre-update image: the snapshot's readLSN pins the
	// watermark below the update's commit.
	db.VersionGC()
	_, rows, err := db.Query(stx, `SELECT qty FROM parts`)
	if err != nil || len(rows) != 1 || rows[0][0].Int() != 10 {
		t.Fatalf("pinned snapshot after GC = %v, %v (want qty 10)", rows, err)
	}
	stx.Commit()
	// With the pin gone, the next full sweep reclaims the chain.
	db.VersionGC()
	if n := db.VersionCount(); n != 0 {
		t.Fatalf("versions after release+GC = %d, want 0", n)
	}
}

func TestSnapshotSeesPKChange(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	commitRows(t, db, `INSERT INTO parts (part_id, qty) VALUES (1, 10)`)
	stx := db.BeginSnapshot()
	defer stx.Commit()
	commitRows(t, db, `UPDATE parts SET part_id = 7 WHERE part_id = 1`)
	// The snapshot must see key 1 present and key 7 absent — on both the
	// scan and the range path.
	_, rows, err := db.Query(stx, `SELECT part_id FROM parts`)
	if err != nil || len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Fatalf("snapshot scan after PK change = %v, %v", rows, err)
	}
	_, rows, err = db.Query(stx, `SELECT part_id FROM parts WHERE part_id BETWEEN 5 AND 9`)
	if err != nil || len(rows) != 0 {
		t.Fatalf("snapshot range over new key = %v, %v (want empty)", rows, err)
	}
	_, rows, err = db.Query(stx, `SELECT part_id FROM parts WHERE part_id BETWEEN 0 AND 4`)
	if err != nil || len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Fatalf("snapshot range over old key = %v, %v", rows, err)
	}
}

func TestSnapshotReadersTakeNoLocks(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	if err := db.CreateSecondaryIndex("parts", "qty"); err != nil {
		t.Fatal(err)
	}
	commitRows(t, db, `INSERT INTO parts (part_id, qty) VALUES (1, 10), (2, 20)`)
	grants := func() uint64 {
		g := db.LockStats().Grants
		for _, ls := range db.LockTableStats() {
			g += ls.Acquires
		}
		return g
	}
	before := grants()
	stx := db.BeginSnapshot()
	for _, q := range []string{
		`SELECT * FROM parts`,
		`SELECT qty FROM parts WHERE part_id = 1`,
		`SELECT part_id FROM parts WHERE part_id BETWEEN 1 AND 2`,
		`SELECT part_id FROM parts WHERE qty BETWEEN 5 AND 15`,
		`SELECT SUM(qty) FROM parts`,
	} {
		if _, _, err := db.Query(stx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	stx.Commit()
	if after := grants(); after != before {
		t.Fatalf("snapshot reads acquired %d locks, want 0", after-before)
	}
}

// TestSnapshotSecondaryRange: a snapshot's secondary-index range reads
// through the index, whose entries follow the writers, and still
// answers at its horizon. Rows that a later commit or an open writer
// moved out of the range, deleted or inserted come back as the
// snapshot saw them, and rows moved into the range do not.
func TestSnapshotSecondaryRange(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	if err := db.CreateSecondaryIndex("parts", "qty"); err != nil {
		t.Fatal(err)
	}
	commitRows(t, db, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 10), (2, 'a', 20), (3, 'a', 30), (4, 'a', 40)`)
	stx := db.BeginSnapshot()
	defer stx.Commit()
	commitRows(t, db, `UPDATE parts SET qty = 500 WHERE part_id = 1`)
	commitRows(t, db, `UPDATE parts SET qty = 25 WHERE part_id = 4`)
	w := db.Begin()
	defer w.Abort()
	for _, sql := range []string{
		`UPDATE parts SET qty = 600 WHERE part_id = 2`,
		`DELETE FROM parts WHERE part_id = 3`,
		`INSERT INTO parts (part_id, status, qty) VALUES (5, 'n', 20)`,
	} {
		if _, err := db.Exec(w, sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ where, want string }{
		{"qty BETWEEN 5 AND 35", "1:10 2:20 3:30"},
		{"qty BETWEEN 15 AND 35", "2:20 3:30"},
		{"qty BETWEEN 400 AND 700", ""},
		{"qty >= 35", "4:40"},
	} {
		_, rows, err := db.Query(stx, "SELECT part_id, qty FROM parts WHERE "+tc.where)
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		got := make([]string, len(rows))
		for i, r := range rows {
			got[i] = fmt.Sprintf("%d:%d", r[0].Int(), r[1].Int())
		}
		sort.Strings(got)
		if s := strings.Join(got, " "); s != tc.want {
			t.Fatalf("snapshot %s = %q, want %q", tc.where, s, tc.want)
		}
	}
}

// heapReadFailFS fails the next ReadAt of a heap file once armed.
type heapReadFailFS struct {
	fault.FS
	armed atomic.Bool
}

type heapReadFailFile struct {
	fault.File
	fs *heapReadFailFS
}

func (s *heapReadFailFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".heap") {
		return f, err
	}
	return &heapReadFailFile{File: f, fs: s}, nil
}

func (f *heapReadFailFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.armed.CompareAndSwap(true, false) {
		return 0, &os.PathError{Op: "read", Path: f.Name(), Err: fault.ErrInjected}
	}
	return f.File.ReadAt(p, off)
}

// TestSnapshotRangeReturnsReadErrors: a heap read that fails under a
// snapshot PK range is the query's error, as it is under a snapshot
// scan and a locked range, and not a row the range drops. The table is
// larger than its two-page pool, so every query reads pages from the
// file, and no version chain is left to stand in for a row.
func TestSnapshotRangeReturnsReadErrors(t *testing.T) {
	fsys := &heapReadFailFS{FS: fault.OS}
	db := openTestDB(t, Options{PoolPages: 2, FS: fsys})
	createParts(t, db)
	const n = 400
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, '%s-%d', %d)", i, strings.Repeat("s", 100), i, i)
	}
	commitRows(t, db, "INSERT INTO parts (part_id, status, qty) VALUES "+strings.Join(vals, ", "))
	db.VersionGC()
	if v := db.VersionCount(); v != 0 {
		t.Fatalf("%d versions after GC, want 0", v)
	}
	tbl, _ := db.Table("parts")
	if pages := tbl.Heap().NumPages(); pages <= 2 {
		t.Fatalf("%d rows on %d pages; want more than the pool holds", n, pages)
	}
	const rangeQ = `SELECT part_id, qty FROM parts WHERE part_id BETWEEN 0 AND 399`
	for _, tc := range []struct {
		name, q string
		snap    bool
	}{
		{"snapshot range", rangeQ, true},
		{"snapshot scan", `SELECT part_id, qty FROM parts`, true},
		{"locked range", rangeQ, false},
	} {
		var tx *Tx
		if tc.snap {
			tx = db.BeginSnapshot()
		}
		fsys.armed.Store(true)
		_, rows, err := db.Query(tx, tc.q)
		if tx != nil {
			tx.Commit()
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: %d of %d rows, err %v; want the injected read error", tc.name, len(rows), n, err)
		}
		if fsys.armed.Load() {
			t.Fatalf("%s: read no page from the file", tc.name)
		}
	}
	// The failed reads leave nothing behind: the next range reads every row.
	stx := db.BeginSnapshot()
	defer stx.Commit()
	if _, rows, err := db.Query(stx, rangeQ); err != nil || len(rows) != n {
		t.Fatalf("snapshot range after the errors: %d rows, %v; want %d", len(rows), err, n)
	}
}
