package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"opdelta/internal/obs"
)

// gcCounts reads the counters the GC bound is stated in.
type gcCounts struct{ created, passes, walked uint64 }

func (db *DB) gcCounts() gcCounts {
	return gcCounts{db.vm.Created.Value(), db.vm.Passes.Value(), db.vm.Walked.Value()}
}

func (c gcCounts) since(o gcCounts) gcCounts {
	return gcCounts{c.created - o.created, c.passes - o.passes, c.walked - o.walked}
}

// loadParts inserts part_id 1..n in one commit and reclaims the
// versions the inserts staged, so counting starts from an empty store.
func loadParts(t *testing.T, db *DB, n int) {
	t.Helper()
	var b strings.Builder
	b.WriteString(`INSERT INTO parts (part_id, qty) VALUES `)
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 0)", i)
	}
	commitRows(t, db, b.String())
	db.VersionGC()
	if n := db.VersionCount(); n != 0 {
		t.Fatalf("versions after quiescent GC = %d, want 0", n)
	}
}

// updateBatches commits one 100-row UPDATE per batch, walking the
// table's keys round-robin.
func updateBatches(t *testing.T, db *DB, rows, batches int) {
	t.Helper()
	for i := 0; i < batches; i++ {
		lo := (i*100)%rows + 1
		commitRows(t, db, fmt.Sprintf(`UPDATE parts SET qty = qty + 1 WHERE part_id BETWEEN %d AND %d`, lo, lo+99))
	}
}

// TestGCWalksAtMostTwoChainsPerVersion: a snapshot pins more than
// gcBaseThreshold versions, so no pass can reclaim anything. Further
// commits still run only a doubling sequence of passes — at most
// ⌈log₂(final ÷ pinned)⌉ + 1 — and every pass walks at most twice the
// versions created since the store was last empty.
func TestGCWalksAtMostTwoChainsPerVersion(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	const rows = 3000
	loadParts(t, db, rows)
	start := db.gcCounts()

	snap := db.BeginSnapshot()
	// Every key gets a chain (base + one version), then one more
	// version each: 9 000 versions pinned.
	updateBatches(t, db, rows, 2*rows/100)
	pinned := db.VersionCount()
	if pinned <= gcBaseThreshold {
		t.Fatalf("pinned %d versions, want more than the base %d", pinned, gcBaseThreshold)
	}
	atPin := db.gcCounts()
	const commits = 300 // 30 000 more versions
	updateBatches(t, db, rows, commits)
	final := db.VersionCount()
	if final != pinned+commits*100 {
		t.Fatalf("live versions %d, want %d pinned + %d created: a pass reclaimed pinned history", final, pinned, commits*100)
	}
	after := db.gcCounts()
	passes := after.since(atPin).passes
	limit := uint64(math.Ceil(math.Log2(float64(final)/float64(pinned)))) + 1
	if passes > limit {
		t.Errorf("%d commits ran %d passes, want at most ⌈log₂(%d/%d)⌉+1 = %d", commits, passes, final, pinned, limit)
	}
	total := after.since(start)
	if total.passes == 0 {
		t.Fatal("no pass ran: the bound is vacuous")
	}
	if total.walked > 2*total.created {
		t.Errorf("passes walked %d chains for %d versions created, want at most 2×", total.walked, total.created)
	}
	t.Logf("pinned %d, final %d: %d passes after the pin (limit %d); %d passes walked %d chains for %d versions created",
		pinned, final, passes, limit, total.passes, total.walked, total.created)

	// Releasing the last snapshot re-arms the trigger without running a
	// pass itself; the next commit runs one, and it reclaims everything
	// but that commit's own versions, whose LSN may not be readable yet.
	snap.Commit()
	if got := db.gcCounts().passes; got != after.passes {
		t.Fatalf("the release ran %d passes, want 0", got-after.passes)
	}
	commitRows(t, db, `UPDATE parts SET qty = 0 WHERE part_id BETWEEN 1 AND 10`)
	if got := db.gcCounts().passes; got != after.passes+1 {
		t.Fatalf("the commit after the release ran %d passes, want 1", got-after.passes)
	}
	if n := db.VersionCount(); n > 2*10 {
		t.Fatalf("%d versions left after the re-armed pass, want at most the 10-row commit's 20", n)
	}
}

// TestAsOfReadableUntilAPassRuns: below the trigger no pass runs, so
// AS OF reads of old commits keep working; the first pass raises the
// low-water mark past them, and reads at or above it still work.
func TestAsOfReadableUntilAPassRuns(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	const rows = 100
	loadParts(t, db, rows)
	lsn1 := commitRows(t, db, `UPDATE parts SET qty = -1 WHERE part_id BETWEEN 1 AND 100`)
	qtyAt := func(lsn uint64) (int64, error) {
		_, res, err := db.Query(nil, fmt.Sprintf(`SELECT SUM(qty) FROM parts AS OF %d`, lsn))
		if err != nil {
			return 0, err
		}
		return res[0][0].Int(), nil
	}
	passes := db.gcCounts().passes
	lsns := []uint64{lsn1} // lsns[k]: the commit after which SUM(qty) is rows*(k-1)
	for db.gcCounts().passes == passes {
		if q, err := qtyAt(lsn1); err != nil || q != -rows {
			t.Fatalf("after %d commits, no pass: AS OF %d = %d, %v, want %d", len(lsns)-1, lsn1, q, err, -rows)
		}
		lsns = append(lsns, commitRows(t, db, `UPDATE parts SET qty = qty + 1`))
	}
	if commits, want := len(lsns)-1, gcBaseThreshold/rows-1; commits < want {
		t.Fatalf("a pass ran after %d commits of %d versions, want none below %d versions", commits, rows, gcBaseThreshold)
	}
	if _, err := qtyAt(lsn1); err == nil || !strings.Contains(err.Error(), "snapshot too old") {
		t.Fatalf("AS OF %d after the pass: %v, want snapshot too old", lsn1, err)
	}
	db.mvcc.mu.Lock()
	low := db.mvcc.lowWater
	db.mvcc.mu.Unlock()
	k := len(lsns) - 1
	for lsns[k] > low {
		k--
	}
	if q, err := qtyAt(low); err != nil || q != int64(rows*(k-1)) {
		t.Fatalf("AS OF the low-water mark %d = %d, %v, want %d", low, q, err, rows*(k-1))
	}
}

// TestVersionCountGauge: the engine exports the live version count the
// trigger reads, and it follows GC and DropTable.
func TestVersionCountGauge(t *testing.T) {
	reg := obs.NewRegistry()
	db := openTestDB(t, Options{Obs: reg})
	createParts(t, db)
	gauge := func() float64 {
		m := reg.Snapshot().Get("mvcc_version_count")
		if m == nil {
			t.Fatal("mvcc_version_count missing")
		}
		return m.Value
	}
	commitRows(t, db, `INSERT INTO parts (part_id, qty) VALUES (1, 1), (2, 2)`)
	if v := gauge(); v != float64(db.VersionCount()) || v != 4 {
		t.Fatalf("mvcc_version_count = %v, want live count %d = 4", v, db.VersionCount())
	}
	db.VersionGC()
	if v := gauge(); v != 0 {
		t.Fatalf("mvcc_version_count after quiescent GC = %v, want 0", v)
	}
	commitRows(t, db, `UPDATE parts SET qty = 3 WHERE part_id = 1`)
	if err := db.DropTable("parts"); err != nil {
		t.Fatal(err)
	}
	if v := gauge(); v != 0 || db.VersionCount() != 0 {
		t.Fatalf("mvcc_version_count after DropTable = %v, want 0", v)
	}
}
