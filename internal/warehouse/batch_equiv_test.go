package warehouse

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/opdelta"
	"opdelta/internal/storage"
	"opdelta/internal/wal"
)

// TestBatchesMatchRowAtATime is the reference test for statement
// batching: the -equivseeds and -viewseeds op streams are replayed
// serially twice, once with every write a statement batch and once with
// every table written row at a time, and the two warehouses must agree
// on every table's contents, every index's entries, every key's image
// at every commit LSN, and the multiset of log records each statement
// wrote. Log records are compared without their RIDs: a record that
// outgrows its page relocates wherever free space is when its turn
// comes, and a batch takes its rows' turns in page order.
func TestBatchesMatchRowAtATime(t *testing.T) {
	for seed := int64(1); seed <= int64(*equivseeds); seed++ {
		t.Run(fmt.Sprintf("equiv/seed%d", seed), func(t *testing.T) {
			withNoPK := seed%2 == 0
			ops := randomOpWorkload(t, seed, 40)
			build := func() *Warehouse { return equivWarehouse(t, wal.SyncFlush, withNoPK) }
			compareBatchedToRows(t, build, ops, []string{"parts"})
		})
	}
	for seed := int64(1); seed <= int64(*viewseeds); seed++ {
		t.Run(fmt.Sprintf("views/seed%d", seed), func(t *testing.T) {
			vs := sweepViewDefs(t, seed%2 == 0)
			ops, _, _ := sweepWorkload(t, seed, 45, nil)
			build := func() *Warehouse { return sweepWarehouse(t, vs, seed%2 == 1) }
			compareBatchedToRows(t, build, ops, []string{"parts", "qty_dim"})
		})
	}
}

// rowAtATime makes db write every table row at a time: a table with a
// row trigger is written in batches of one, so a trigger that does
// nothing is the seam.
func rowAtATime(t *testing.T, db *engine.DB) {
	t.Helper()
	for _, name := range db.Tables() {
		if err := db.CreateTrigger(name, engine.Trigger{
			Name: "row_at_a_time", OnInsert: true, OnUpdate: true, OnDelete: true,
			Fn: func(*engine.Tx, engine.TriggerEvent) error { return nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// replayRun is one replay of a stream and what it left behind.
type replayRun struct {
	w     *Warehouse
	marks []wal.LSN // the log's next LSN after each statement with a delta
	pin   *engine.Tx
}

func replay(t *testing.T, build func() *Warehouse, ops []*opdelta.Op, sources []string, rows bool) *replayRun {
	t.Helper()
	r := &replayRun{w: build()}
	if rows {
		rowAtATime(t, r.w.DB)
	}
	// The last hook on each source table fires after the statement and
	// its views are written.
	for _, src := range sources {
		if err := r.w.DB.CreateStatementHook(src, engine.StatementHook{
			Name: "zz_mark",
			Fn: func(*engine.Tx, *engine.StatementDelta) error {
				r.marks = append(r.marks, r.w.DB.WAL().NextLSN())
				return nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Keep every commit's history readable.
	r.pin = r.w.DB.BeginSnapshot()
	t.Cleanup(func() { r.pin.Commit() })
	if _, err := (&ParallelIntegrator{W: r.w}).Apply(ops); err != nil {
		t.Fatal(err)
	}
	return r
}

func compareBatchedToRows(t *testing.T, build func() *Warehouse, ops []*opdelta.Op, sources []string) {
	t.Helper()
	a := replay(t, build, ops, sources, false)
	b := replay(t, build, ops, sources, true)
	tables := a.w.DB.Tables()
	sort.Strings(tables)

	for _, name := range tables {
		if x, y := tableImage(t, a.w.DB, name), tableImage(t, b.w.DB, name); strings.Join(x, "\n") != strings.Join(y, "\n") {
			t.Fatalf("%s: contents differ:\n batched %q\n rows    %q", name, x, y)
		}
		if x, y := indexImage(t, a.w.DB, name), indexImage(t, b.w.DB, name); x != y {
			t.Fatalf("%s: index entries differ:\n batched %s\n rows    %s", name, x, y)
		}
	}

	recsA, recsB := walRecords(t, a.w.DB), walRecords(t, b.w.DB)
	if len(a.marks) != len(b.marks) {
		t.Fatalf("%d statements marked batched, %d row at a time", len(a.marks), len(b.marks))
	}
	segA, segB := splitAt(recsA, a.marks), splitAt(recsB, b.marks)
	for i := range segA {
		if x, y := recordMultiset(segA[i]), recordMultiset(segB[i]); x != y {
			t.Fatalf("statement %d: log records differ:\n batched %s\n rows    %s", i, x, y)
		}
	}
	if len(recsA) != len(recsB) {
		t.Fatalf("%d log records batched, %d row at a time", len(recsA), len(recsB))
	}

	commits := 0
	for i, rec := range recsA {
		if rec.Type != wal.RecCommit {
			continue
		}
		if recsB[i].Type != wal.RecCommit || recsB[i].LSN != rec.LSN {
			t.Fatalf("commit at LSN %d batched, record %v at LSN %d row at a time", rec.LSN, recsB[i].Type, recsB[i].LSN)
		}
		commits++
		for _, name := range tables {
			if x, y := snapshotImage(t, a.w.DB, name, uint64(rec.LSN)), snapshotImage(t, b.w.DB, name, uint64(rec.LSN)); x != y {
				t.Fatalf("%s AS OF %d differs:\n batched %s\n rows    %s", name, rec.LSN, x, y)
			}
		}
	}
	if commits == 0 {
		t.Fatal("the replay committed nothing")
	}
	t.Logf("%d statements, %d log records, %d commits agree", len(a.marks), len(recsA), commits)
}

// indexImage renders every index of a table as the rows its entries
// lead to: the primary-key index as (key, row) in key order, each
// secondary index as its rows in index order. Entries whose row does
// not carry their key fail the test.
func indexImage(t *testing.T, db *engine.DB, name string) string {
	t.Helper()
	tbl, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	var ferr error
	tbl.RangePK(nil, nil, func(k catalog.Value, rid storage.RID) bool {
		rec, err := tbl.Heap().Get(rid)
		if err != nil {
			ferr = fmt.Errorf("pk %v -> %v: %w", k, rid, err)
			return false
		}
		tup, err := catalog.DecodeTuple(tbl.Schema, rec)
		if err != nil {
			ferr = err
			return false
		}
		if !catalog.Equal(tup[tbl.PKCol], k) {
			ferr = fmt.Errorf("pk entry %v leads to row %v", k, tup)
			return false
		}
		fmt.Fprintf(&b, "%v;", tup)
		return true
	})
	if ferr != nil {
		t.Fatalf("%s: %v", name, ferr)
	}
	for _, col := range tbl.SecondaryIndexes() {
		rows, err := db.IndexEdge(nil, name, col, false, int(tbl.NumRows())+1)
		if err != nil {
			t.Fatal(err)
		}
		pos, _ := tbl.Schema.ColIndex(col)
		var keys []string
		for i, row := range rows {
			if i > 0 {
				if c, _ := catalog.Compare(rows[i-1][pos], row[pos]); c > 0 && !rows[i-1][pos].IsNull() && !row[pos].IsNull() {
					t.Fatalf("%s: index on %s out of order at %v", name, col, row)
				}
			}
			keys = append(keys, row.String())
		}
		if len(rows) != int(tbl.NumRows()) {
			t.Fatalf("%s: index on %s has %d entries for %d rows", name, col, len(rows), tbl.NumRows())
		}
		sort.Strings(keys) // rows under one value sit in RID order
		fmt.Fprintf(&b, " %s:%s", col, strings.Join(keys, ";"))
	}
	return b.String()
}

// snapshotImage renders a primary-key table as a snapshot at lsn reads
// it, through the version chains; tables without a key have none.
func snapshotImage(t *testing.T, db *engine.DB, name string, lsn uint64) string {
	t.Helper()
	tbl, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.PKCol < 0 {
		return ""
	}
	tx, err := db.BeginSnapshotAt(lsn)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	var rows []string
	if err := db.ScanTable(tx, name, func(tup catalog.Tuple) error {
		rows = append(rows, tup.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return strings.Join(rows, ";")
}

func walRecords(t *testing.T, db *engine.DB) []*wal.Record {
	t.Helper()
	if err := db.WAL().Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.ReadAll(db.WALDir())
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// splitAt cuts the log at each mark: segment i holds the records of
// the i-th marked statement (and the BEGIN or COMMIT records around it).
func splitAt(recs []*wal.Record, marks []wal.LSN) [][]*wal.Record {
	out := make([][]*wal.Record, len(marks))
	i := 0
	for s, m := range marks {
		for i < len(recs) && recs[i].LSN < m {
			out[s] = append(out[s], recs[i])
			i++
		}
	}
	return out
}

// recordMultiset renders records without LSNs and RIDs, sorted.
func recordMultiset(recs []*wal.Record) string {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = fmt.Sprintf("%v/%d/%s/%x/%x", r.Type, r.Txn, r.Table, r.Before, r.After)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}
