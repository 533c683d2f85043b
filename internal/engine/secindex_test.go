package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/storage"
)

// TestQuickEncodingPreservesOrder: the lexicographic order of the index
// encoding must equal catalog.Compare's order for every indexable type.
func TestQuickEncodingPreservesOrder(t *testing.T) {
	gen := func(r *rand.Rand) catalog.Value {
		switch r.Intn(6) {
		case 0:
			return catalog.NewInt(r.Int63() - r.Int63())
		case 1:
			f := r.NormFloat64() * math.Pow(10, float64(r.Intn(10)))
			if r.Intn(10) == 0 {
				f = 0
			}
			return catalog.NewFloat(f)
		case 2:
			b := make([]byte, r.Intn(12))
			for i := range b {
				b[i] = byte(r.Intn(256)) // includes 0x00 and 0xFF
			}
			return catalog.NewString(string(b))
		case 3:
			return catalog.NewTime(time.Unix(r.Int63n(1e9)-5e8, r.Int63n(1e9)))
		case 4:
			return catalog.NewBool(r.Intn(2) == 0)
		default:
			types := []catalog.Type{catalog.TypeInt64, catalog.TypeString}
			return catalog.NewNull(types[r.Intn(len(types))])
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := gen(r)
		b := gen(r)
		// Only compare same-type (or NULL-involved) pairs; the index
		// holds one column's type.
		if !a.IsNull() && !b.IsNull() && a.Type() != b.Type() {
			b = a
		}
		ea, err1 := encodeIndexValue(nil, a)
		eb, err2 := encodeIndexValue(nil, b)
		if err1 != nil || err2 != nil {
			return false
		}
		want, err := catalog.Compare(a, b)
		if err != nil {
			return false
		}
		got := bytes.Compare(ea, eb)
		if want == 0 {
			return got == 0
		}
		return (want < 0) == (got < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodingStringPrefixOrdering(t *testing.T) {
	// "a" < "a\x00" < "a\x01" < "ab" — prefix extensions must sort after.
	vals := []string{"a", "a\x00", "a\x01", "ab"}
	var encs [][]byte
	for _, s := range vals {
		e, err := encodeIndexValue(nil, catalog.NewString(s))
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, e)
	}
	for i := 1; i < len(encs); i++ {
		if bytes.Compare(encs[i-1], encs[i]) >= 0 {
			t.Fatalf("enc(%q) !< enc(%q)", vals[i-1], vals[i])
		}
	}
}

func secFixture(t *testing.T) *DB {
	t.Helper()
	db := openTestDB(t, Options{})
	createParts(t, db)
	tx := db.Begin()
	for i := 0; i < 500; i++ {
		if _, err := db.Exec(tx, fmt.Sprintf(
			`INSERT INTO parts (part_id, status, qty) VALUES (%d, 's%d', %d)`, i, i%5, i%100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSecondaryIndexCorrectness(t *testing.T) {
	db := secFixture(t)
	if err := db.CreateSecondaryIndex("parts", "qty"); err != nil {
		t.Fatal(err)
	}
	// Duplicate creation fails; unknown column fails.
	if err := db.CreateSecondaryIndex("parts", "qty"); err == nil {
		t.Fatal("duplicate index must fail")
	}
	if err := db.CreateSecondaryIndex("parts", "ghost"); err == nil {
		t.Fatal("unknown column must fail")
	}
	// Indexed queries return the same rows as scans.
	for _, where := range []string{
		"qty = 7", "qty BETWEEN 10 AND 12", "qty >= 95", "qty < 3",
	} {
		nIndexed := mustCount(t, db, "parts", where)
		if err := db.DropSecondaryIndex("parts", "qty"); err != nil {
			t.Fatal(err)
		}
		nScan := mustCount(t, db, "parts", where)
		if err := db.CreateSecondaryIndex("parts", "qty"); err != nil {
			t.Fatal(err)
		}
		if nIndexed != nScan {
			t.Fatalf("WHERE %s: indexed=%d scan=%d", where, nIndexed, nScan)
		}
	}
	// Index survives churn: updates move entries, deletes remove them.
	if _, err := db.Exec(nil, `UPDATE parts SET qty = 999 WHERE part_id < 10`); err != nil {
		t.Fatal(err)
	}
	if n := mustCount(t, db, "parts", "qty = 999"); n != 10 {
		t.Fatalf("after update: %d", n)
	}
	if _, err := db.Exec(nil, `DELETE FROM parts WHERE qty = 999`); err != nil {
		t.Fatal(err)
	}
	if n := mustCount(t, db, "parts", "qty = 999"); n != 0 {
		t.Fatalf("after delete: %d", n)
	}
	// Aborted transactions restore index entries.
	tx := db.Begin()
	db.Exec(tx, `UPDATE parts SET qty = 777 WHERE part_id BETWEEN 20 AND 29`)
	tx.Abort()
	if n := mustCount(t, db, "parts", "qty = 777"); n != 0 {
		t.Fatalf("aborted update leaked into index: %d", n)
	}
}

func TestSecondaryIndexPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	clock := newClock()
	db, err := Open(dir, Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	createParts(t, db)
	db.Exec(nil, `INSERT INTO parts (part_id, qty) VALUES (1, 10), (2, 20), (3, 10)`)
	if err := db.CreateSecondaryIndex("parts", "qty"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl, _ := db2.Table("parts")
	if got := tbl.SecondaryIndexes(); len(got) != 1 || got[0] != "qty" {
		t.Fatalf("indexes after reopen = %v", got)
	}
	if n := mustCount(t, db2, "parts", "qty = 10"); n != 2 {
		t.Fatalf("indexed count after reopen = %d", n)
	}
}

// TestTimestampIndexSpeedsExtraction reproduces the paper's sentence:
// "the time stamp based methods require table scans unless an index is
// defined on the time stamp attribute" — a small delta is found with
// far fewer page reads when last_modified is indexed.
func TestTimestampIndexSpeedsExtraction(t *testing.T) {
	db := openTestDB(t, Options{PoolPages: 8})
	createParts(t, db)
	tx := db.Begin()
	for i := 0; i < 5000; i++ {
		if _, err := db.Exec(tx, fmt.Sprintf(
			`INSERT INTO parts (part_id, status) VALUES (%d, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')`, i)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	// Record the cursor, touch 20 rows.
	_, rows, _ := db.Query(nil, `SELECT MAX(last_modified) FROM parts`)
	cursor := rows[0][0].Time()
	db.Exec(nil, `UPDATE parts SET status = 'delta' WHERE part_id BETWEEN 100 AND 119`)

	where := fmt.Sprintf("last_modified > TIMESTAMP '%s'", cursor.UTC().Format("2006-01-02T15:04:05.999999999Z07:00"))
	tbl, _ := db.Table("parts")

	before := tbl.Heap().Pool().Stats()
	if n := mustCount(t, db, "parts", where); n != 20 {
		t.Fatalf("scan found %d delta rows", n)
	}
	mid := tbl.Heap().Pool().Stats()
	if err := db.CreateSecondaryIndex("parts", "last_modified"); err != nil {
		t.Fatal(err)
	}
	afterBuild := tbl.Heap().Pool().Stats()
	if n := mustCount(t, db, "parts", where); n != 20 {
		t.Fatalf("indexed found %d delta rows", n)
	}
	after := tbl.Heap().Pool().Stats()

	scanMisses := mid.Misses - before.Misses
	idxMisses := after.Misses - afterBuild.Misses
	if idxMisses*3 >= scanMisses {
		t.Fatalf("indexed extraction read %d pages vs scan %d — index not used?", idxMisses, scanMisses)
	}
}

// TestQuickSecondaryIndexMatchesScan: random churn, then every indexed
// range query must agree with a trigger-free scan evaluation.
func TestQuickSecondaryIndexMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db, err := Open(t.TempDir(), Options{Now: newClock().Now})
		if err != nil {
			return false
		}
		defer db.Close()
		if _, err := db.Exec(nil, `CREATE TABLE t (id BIGINT NOT NULL, v BIGINT) PRIMARY KEY (id)`); err != nil {
			return false
		}
		if err := db.CreateSecondaryIndex("t", "v"); err != nil {
			return false
		}
		next := int64(0)
		for step := 0; step < 60; step++ {
			switch r.Intn(3) {
			case 0:
				if _, err := db.Exec(nil, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, next, r.Int63n(20))); err != nil {
					return false
				}
				next++
			case 1:
				if next == 0 {
					continue
				}
				if _, err := db.Exec(nil, fmt.Sprintf(`UPDATE t SET v = %d WHERE id = %d`, r.Int63n(20), r.Int63n(next))); err != nil {
					return false
				}
			case 2:
				if next == 0 {
					continue
				}
				if _, err := db.Exec(nil, fmt.Sprintf(`DELETE FROM t WHERE id = %d`, r.Int63n(next))); err != nil {
					return false
				}
			}
		}
		// Compare indexed count vs model built from a full dump.
		model := map[int64]int{}
		if err := db.ScanTable(nil, "t", func(tup catalog.Tuple) error {
			model[tup[1].Int()]++
			return nil
		}); err != nil {
			return false
		}
		for v := int64(0); v < 20; v++ {
			n := mustCountQuiet(db, fmt.Sprintf("v = %d", v))
			if n != model[v] {
				return false
			}
		}
		lo, hi := r.Int63n(20), r.Int63n(20)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := 0
		for v := lo; v <= hi; v++ {
			want += model[v]
		}
		return mustCountQuiet(db, fmt.Sprintf("v BETWEEN %d AND %d", lo, hi)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func mustCountQuiet(db *DB, where string) int {
	_, rows, err := db.Query(nil, "SELECT * FROM t WHERE "+where)
	if err != nil {
		return -1
	}
	return len(rows)
}

func TestIndexEntryKeyRIDRoundtrip(t *testing.T) {
	rid := storage.RID{Page: 123456, Slot: 789}
	key, err := indexEntryKey(catalog.NewInt(-42), rid)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeEntryRID(key); got != rid {
		t.Fatalf("rid roundtrip: %v vs %v", got, rid)
	}
}

// TestIndexEdge: the low and high ends of a secondary index come back in
// index order from that end — including after deletes have emptied the
// edge leaves, which the tree never rebalances.
func TestIndexEdge(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	if err := db.CreateSecondaryIndex("parts", "qty"); err != nil {
		t.Fatal(err)
	}
	if rows, err := db.IndexEdge(nil, "parts", "qty", true, 3); err != nil || len(rows) != 0 {
		t.Fatalf("empty index: %d rows, %v", len(rows), err)
	}
	tx := db.Begin()
	for i := 0; i < 1000; i++ {
		if _, err := db.Exec(tx, fmt.Sprintf(`INSERT INTO parts (part_id, qty) VALUES (%d, %d)`, i, i/2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	qtys := func(desc bool, n int) []int64 {
		t.Helper()
		rows, err := db.IndexEdge(nil, "parts", "qty", desc, n)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(rows))
		for i, r := range rows {
			out[i] = r[2].Int()
		}
		return out
	}
	if got := qtys(false, 3); fmt.Sprint(got) != "[0 0 1]" {
		t.Fatalf("low edge = %v", got)
	}
	if got := qtys(true, 3); fmt.Sprint(got) != "[499 499 498]" {
		t.Fatalf("high edge = %v", got)
	}
	// Empty more than a leaf's worth of entries at both ends.
	if _, err := db.Exec(nil, `DELETE FROM parts WHERE qty < 100`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(nil, `DELETE FROM parts WHERE qty > 400`); err != nil {
		t.Fatal(err)
	}
	if got := qtys(false, 2); fmt.Sprint(got) != "[100 100]" {
		t.Fatalf("low edge after delete = %v", got)
	}
	if got := qtys(true, 2); fmt.Sprint(got) != "[400 400]" {
		t.Fatalf("high edge after delete = %v", got)
	}
	if got := qtys(true, 5000); len(got) != 602 {
		t.Fatalf("n past the end returned %d rows, want all 602", len(got))
	}
	if _, err := db.IndexEdge(nil, "parts", "status", false, 1); err == nil {
		t.Fatal("IndexEdge on an unindexed column must fail")
	}
}
