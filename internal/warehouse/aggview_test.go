package warehouse

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"opdelta/internal/extract"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
)

func aggViewFixture(t *testing.T) (*Warehouse, *AggView) {
	t.Helper()
	src := openDB(t)
	if _, err := src.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	schema := partsSchema(t, src)
	w := replicaWarehouse(t, schema)
	v, err := w.RegisterAggView(AggViewDef{
		Name: "qty_by_status", Source: "parts", GroupBy: "status",
		Aggregates: []sqlmini.AggSpec{
			{Fn: sqlmini.AggCount},
			{Fn: sqlmini.AggSum, Col: "qty"},
		},
	}, schema)
	if err != nil {
		t.Fatal(err)
	}
	return w, v
}

func TestAggViewIncrementalMaintenance(t *testing.T) {
	w, _ := aggViewFixture(t)
	in := &ParallelIntegrator{W: w}
	apply := func(kind opdelta.OpKind, stmt string) {
		t.Helper()
		if _, err := in.Apply([]*opdelta.Op{{Seq: 1, Kind: kind, Table: "parts", Stmt: stmt}}); err != nil {
			t.Fatal(err)
		}
	}
	apply(opdelta.OpInsert, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 10), (2, 'a', 20), (3, 'b', 30)`)
	_, rows, err := w.DB.Query(nil, `SELECT * FROM qty_by_status ORDER BY status`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	// status, n_rows, count, sum_qty
	if rows[0][0].Str() != "a" || rows[0][1].Int() != 2 || rows[0][2].Int() != 2 || rows[0][3].Int() != 30 {
		t.Fatalf("group a = %v", rows[0])
	}
	if rows[1][0].Str() != "b" || rows[1][3].Int() != 30 {
		t.Fatalf("group b = %v", rows[1])
	}

	// Update moves a row between groups.
	apply(opdelta.OpUpdate, `UPDATE parts SET status = 'b' WHERE part_id = 1`)
	_, rows, _ = w.DB.Query(nil, `SELECT * FROM qty_by_status ORDER BY status`)
	if rows[0][1].Int() != 1 || rows[0][3].Int() != 20 { // a: one row, qty 20
		t.Fatalf("group a after move = %v", rows[0])
	}
	if rows[1][1].Int() != 2 || rows[1][3].Int() != 40 { // b: rows 1,3
		t.Fatalf("group b after move = %v", rows[1])
	}

	// Deleting the last row of a group removes the group.
	apply(opdelta.OpDelete, `DELETE FROM parts WHERE part_id = 2`)
	_, rows, _ = w.DB.Query(nil, `SELECT * FROM qty_by_status`)
	if len(rows) != 1 || rows[0][0].Str() != "b" {
		t.Fatalf("groups after emptying a = %v", rows)
	}
	// Value updates adjust sums in place.
	apply(opdelta.OpUpdate, `UPDATE parts SET qty = qty + 5 WHERE part_id = 3`)
	_, rows, _ = w.DB.Query(nil, `SELECT sum_qty FROM qty_by_status`)
	if rows[0][0].Int() != 45 { // rows 1 (qty 10) and 3 (qty 30+5)
		t.Fatalf("sum after qty bump = %v", rows[0])
	}
}

func TestAggViewRejectsMinMax(t *testing.T) {
	src := openDB(t)
	src.Exec(nil, partsDDL)
	schema := partsSchema(t, src)
	w := replicaWarehouse(t, schema)
	_, err := w.RegisterAggView(AggViewDef{
		Name: "bad", Source: "parts",
		Aggregates: []sqlmini.AggSpec{{Fn: sqlmini.AggMin, Col: "qty"}},
	}, schema)
	if err == nil {
		t.Fatal("MIN must be rejected (not incrementally maintainable)")
	}
	if _, err := w.RegisterAggView(AggViewDef{Name: "bad2", Source: "parts",
		Aggregates: []sqlmini.AggSpec{{Fn: sqlmini.AggSum, Col: "status"}}}, schema); err == nil {
		t.Fatal("SUM over strings must be rejected")
	}
	if _, err := w.RegisterAggView(AggViewDef{Name: "bad3", Source: "ghost",
		Aggregates: []sqlmini.AggSpec{{Fn: sqlmini.AggCount}}}, schema); err == nil {
		t.Fatal("aggregate view without a replica must be rejected")
	}
}

func TestAggViewUngroupedWithSelection(t *testing.T) {
	src := openDB(t)
	src.Exec(nil, partsDDL)
	schema := partsSchema(t, src)
	w := replicaWarehouse(t, schema)
	where, _ := sqlmini.ParseExpr(`qty >= 10`)
	if _, err := w.RegisterAggView(AggViewDef{
		Name: "big_parts_total", Source: "parts", Where: where,
		Aggregates: []sqlmini.AggSpec{{Fn: sqlmini.AggCount}, {Fn: sqlmini.AggSum, Col: "qty"}},
	}, schema); err != nil {
		t.Fatal(err)
	}
	in := &ParallelIntegrator{W: w}
	in.Apply([]*opdelta.Op{{Seq: 1, Kind: opdelta.OpInsert, Table: "parts",
		Stmt: `INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 5), (2, 'a', 15), (3, 'a', 25)`}})
	_, rows, err := w.DB.Query(nil, `SELECT * FROM big_parts_total`)
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
	// qty 5 filtered out: n_rows=2, count=2, sum=40.
	if rows[0][0].Int() != 2 || rows[0][2].Int() != 40 {
		t.Fatalf("row = %v", rows[0])
	}
	// Row leaving the selection via update.
	in.Apply([]*opdelta.Op{{Seq: 2, Kind: opdelta.OpUpdate, Table: "parts",
		Stmt: `UPDATE parts SET qty = 1 WHERE part_id = 2`}})
	_, rows, _ = w.DB.Query(nil, `SELECT * FROM big_parts_total`)
	if rows[0][0].Int() != 1 || rows[0][2].Int() != 25 {
		t.Fatalf("after leave = %v", rows[0])
	}
}

// TestQuickAggViewMatchesRecompute: under random change streams, the
// incrementally maintained aggregate view must always equal a full
// recomputation over the replica.
func TestQuickAggViewMatchesRecompute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, _ := aggViewFixture(t)
		in := &ParallelIntegrator{W: w}
		nextID := int64(0)
		for step := 0; step < 25; step++ {
			var stmt string
			kind := opdelta.OpInsert
			switch r.Intn(3) {
			case 0:
				stmt = fmt.Sprintf(`INSERT INTO parts (part_id, status, qty) VALUES (%d, 's%d', %d)`,
					nextID, r.Intn(3), r.Int63n(50))
				nextID++
			case 1:
				if nextID == 0 {
					continue
				}
				kind = opdelta.OpUpdate
				stmt = fmt.Sprintf(`UPDATE parts SET status = 's%d', qty = qty + %d WHERE part_id BETWEEN %d AND %d`,
					r.Intn(3), r.Int63n(7), r.Int63n(nextID), r.Int63n(nextID))
			case 2:
				if nextID == 0 {
					continue
				}
				kind = opdelta.OpDelete
				lo := r.Int63n(nextID)
				stmt = fmt.Sprintf(`DELETE FROM parts WHERE part_id BETWEEN %d AND %d`, lo, lo+r.Int63n(3))
			}
			if _, err := in.Apply([]*opdelta.Op{{Seq: uint64(step + 1), Kind: kind, Table: "parts", Stmt: stmt}}); err != nil {
				return false
			}
		}
		// Recompute from the replica with the engine's own aggregates.
		_, want, err := w.DB.Query(nil, `SELECT status, COUNT(*), SUM(qty) FROM parts GROUP BY status`)
		if err != nil {
			return false
		}
		_, got, err := w.DB.Query(nil, `SELECT status, n_rows, sum_qty FROM qty_by_status ORDER BY status`)
		if err != nil {
			return false
		}
		if len(want) != len(got) {
			return false
		}
		for i := range want {
			if want[i][0].Str() != got[i][0].Str() ||
				want[i][1].Int() != got[i][1].Int() ||
				want[i][2].Int() != got[i][2].Int() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestAggViewWorksWithValueDeltas: both integrators drive the same view
// maintenance through the replica triggers.
func TestAggViewWorksWithValueDeltas(t *testing.T) {
	src, vc, _, _ := sourceWithCapture(t, nil)
	schema := partsSchema(t, src)
	w := replicaWarehouse(t, schema)
	if _, err := w.RegisterAggView(AggViewDef{
		Name: "totals", Source: "parts",
		Aggregates: []sqlmini.AggSpec{{Fn: sqlmini.AggCount}, {Fn: sqlmini.AggSum, Col: "qty"}},
	}, schema); err != nil {
		t.Fatal(err)
	}
	src.Exec(nil, `INSERT INTO parts (part_id, qty) VALUES (1, 10), (2, 20)`)
	src.Exec(nil, `DELETE FROM parts WHERE part_id = 1`)
	var sink extract.CollectSink
	vc.Extract(&sink)
	if _, err := (&ValueDeltaIntegrator{W: w}).Apply(sink.Deltas); err != nil {
		t.Fatal(err)
	}
	_, rows, err := w.DB.Query(nil, `SELECT n_rows, sum_qty FROM totals`)
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
	if rows[0][0].Int() != 1 || rows[0][1].Int() != 20 {
		t.Fatalf("totals = %v", rows[0])
	}
}
