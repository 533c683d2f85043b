package warehouse

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/extract"
	"opdelta/internal/opdelta"
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

const partsDDL = `CREATE TABLE parts (
	part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT, last_modified TIMESTAMP
) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`

func partsSchema(t *testing.T, db *engine.DB) *catalog.Schema {
	t.Helper()
	tbl, err := db.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Schema
}

// sourceWithCapture builds a source DB with both trigger-based value
// capture and op capture installed.
func sourceWithCapture(t *testing.T, analyzer *opdelta.Analyzer) (*engine.DB, *extract.TriggerCapture, *opdelta.Capture, *opdelta.TableLog) {
	t.Helper()
	src := openDB(t)
	if _, err := src.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	vc := &extract.TriggerCapture{DB: src, Table: "parts"}
	if err := vc.Install(); err != nil {
		t.Fatal(err)
	}
	log, err := opdelta.NewTableLog(src)
	if err != nil {
		t.Fatal(err)
	}
	oc := &opdelta.Capture{DB: src, Log: log, Analyzer: analyzer}
	return src, vc, oc, log
}

// replicaWarehouse builds a warehouse with a parts replica.
func replicaWarehouse(t *testing.T, schema *catalog.Schema) *Warehouse {
	t.Helper()
	w := New(openDB(t))
	if err := w.RegisterReplica("parts", schema, "part_id", "last_modified"); err != nil {
		t.Fatal(err)
	}
	return w
}

// tableRows reads all rows of a table sorted by first column's string.
func tableRows(t *testing.T, db *engine.DB, table string) []catalog.Tuple {
	t.Helper()
	_, rows, err := db.Query(nil, "SELECT * FROM "+table)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].String() < rows[j][0].String() })
	return rows
}

// rowsEqualIgnoringTS compares row sets ignoring TIMESTAMP columns
// (op-delta replay re-stamps engine-maintained timestamps, like
// statement-based replication).
func rowsEqualIgnoringTS(a, b []catalog.Tuple, schema *catalog.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := 0; j < schema.NumColumns(); j++ {
			if schema.Column(j).Type == catalog.TypeTime {
				continue
			}
			if !catalog.Equal(a[i][j], b[i][j]) &&
				!(a[i][j].IsNull() && b[i][j].IsNull()) {
				return false
			}
		}
	}
	return true
}

func TestValueDeltaIntegrationIntoReplica(t *testing.T) {
	src, vc, _, _ := sourceWithCapture(t, nil)
	schema := partsSchema(t, src)
	src.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 1), (2, 'b', 2), (3, 'c', 3)`)
	src.Exec(nil, `UPDATE parts SET status = 'bb' WHERE part_id = 2`)
	src.Exec(nil, `DELETE FROM parts WHERE part_id = 3`)

	var sink extract.CollectSink
	if _, err := vc.Extract(&sink); err != nil {
		t.Fatal(err)
	}
	w := replicaWarehouse(t, schema)
	stats, err := (&ValueDeltaIntegrator{W: w}).Apply(sink.Deltas)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 5 || stats.Txns != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Update = delete+insert -> 3 inserts + 1 upd(2) + 1 del = 6 stmts.
	if stats.Statements != 6 {
		t.Fatalf("statements = %d, want 6", stats.Statements)
	}
	srcRows := tableRows(t, src, "parts")
	whRows := tableRows(t, w.DB, "parts")
	if len(whRows) != 2 {
		t.Fatalf("warehouse rows = %d", len(whRows))
	}
	for i := range srcRows {
		if !srcRows[i].Equal(whRows[i]) {
			t.Fatalf("exact replica mismatch:\n src %v\n  wh %v", srcRows[i], whRows[i])
		}
	}
}

func TestOpDeltaIntegrationIntoReplica(t *testing.T) {
	src, _, oc, log := sourceWithCapture(t, nil)
	schema := partsSchema(t, src)
	oc.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 1), (2, 'b', 2), (3, 'c', 3)`)
	oc.Exec(nil, `UPDATE parts SET status = 'bb', qty = qty * 10 WHERE part_id >= 2`)
	oc.Exec(nil, `DELETE FROM parts WHERE qty > 25`)

	ops, err := log.Read(0)
	if err != nil || len(ops) != 3 {
		t.Fatalf("ops: %d, %v", len(ops), err)
	}
	w := replicaWarehouse(t, schema)
	stats, err := (&ParallelIntegrator{W: w}).Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3 || stats.Txns != 3 || stats.Statements != 3 {
		t.Fatalf("stats = %+v (one statement per op, one txn per source txn)", stats)
	}
	srcRows := tableRows(t, src, "parts")
	whRows := tableRows(t, w.DB, "parts")
	if !rowsEqualIgnoringTS(srcRows, whRows, schema) {
		t.Fatalf("replica mismatch:\n src %v\n  wh %v", srcRows, whRows)
	}
}

func TestOpDeltaGroupsBySourceTxn(t *testing.T) {
	src, _, oc, log := sourceWithCapture(t, nil)
	schema := partsSchema(t, src)
	tx := src.Begin()
	oc.Exec(tx, `INSERT INTO parts (part_id) VALUES (1)`)
	oc.Exec(tx, `INSERT INTO parts (part_id) VALUES (2)`)
	tx.Commit()
	oc.Exec(nil, `INSERT INTO parts (part_id) VALUES (3)`)

	ops, _ := log.Read(0)
	w := replicaWarehouse(t, schema)
	stats, err := (&ParallelIntegrator{W: w}).Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Txns != 2 {
		t.Fatalf("txns = %d, want 2 (source boundaries preserved)", stats.Txns)
	}
	// One warehouse transaction per op is a stream whose ops each carry
	// their own Txn.
	ops = opdelta.CloneOps(ops)
	for i, op := range ops {
		op.Txn = uint64(100 + i)
	}
	w = replicaWarehouse(t, schema)
	if stats, err = (&ParallelIntegrator{W: w}).Apply(ops); err != nil {
		t.Fatal(err)
	}
	if stats.Txns != 3 {
		t.Fatalf("txns = %d, want 3 (one per op)", stats.Txns)
	}
}

func TestSPViewMaintenanceViaReplicaTriggers(t *testing.T) {
	src, vc, _, _ := sourceWithCapture(t, nil)
	schema := partsSchema(t, src)
	w := replicaWarehouse(t, schema)
	where, _ := sqlmini.ParseExpr(`status = 'active'`)
	if _, err := w.RegisterView(opdelta.ViewDef{
		Name: "active_parts", Source: "parts",
		Project: []string{"part_id", "qty"}, Where: where,
	}, schema, nil); err != nil {
		t.Fatal(err)
	}

	src.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'active', 10), (2, 'dead', 20), (3, 'active', 30)`)
	src.Exec(nil, `UPDATE parts SET status = 'dead' WHERE part_id = 1`)   // leaves view
	src.Exec(nil, `UPDATE parts SET status = 'active' WHERE part_id = 2`) // enters view
	src.Exec(nil, `UPDATE parts SET qty = 99 WHERE part_id = 3`)          // stays, changes
	src.Exec(nil, `DELETE FROM parts WHERE part_id = 2`)                  // leaves via delete

	var sink extract.CollectSink
	vc.Extract(&sink)
	if _, err := (&ValueDeltaIntegrator{W: w}).Apply(sink.Deltas); err != nil {
		t.Fatal(err)
	}
	rows := tableRows(t, w.DB, "active_parts")
	if len(rows) != 1 || rows[0][0].Int() != 3 || rows[0][1].Int() != 99 {
		t.Fatalf("view rows = %v", rows)
	}
}

func TestViewOnlyOpDeltaSelfMaintainable(t *testing.T) {
	view := opdelta.ViewDef{
		Name: "slim_parts", Source: "parts",
		Project:  []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}
	analyzer := opdelta.NewAnalyzer(view)
	src, _, oc, log := sourceWithCapture(t, analyzer)
	schema := partsSchema(t, src)

	// Warehouse stores ONLY the view — no replica.
	w := New(openDB(t))
	if _, err := w.RegisterView(view, schema, nil); err != nil {
		t.Fatal(err)
	}

	oc.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 1), (2, 'b', 2)`)
	oc.Exec(nil, `UPDATE parts SET status = 'z' WHERE part_id = 1`) // self-maintainable
	oc.Exec(nil, `DELETE FROM parts WHERE status = 'b'`)            // self-maintainable
	oc.Exec(nil, `DELETE FROM parts WHERE qty > 100`)               // hybrid (matches none)

	ops, _ := log.Read(0)
	if _, err := (&ParallelIntegrator{W: w}).Apply(ops); err != nil {
		t.Fatal(err)
	}
	rows := tableRows(t, w.DB, "slim_parts")
	if len(rows) != 1 || rows[0][0].Int() != 1 || rows[0][1].Str() != "z" {
		t.Fatalf("view rows = %v", rows)
	}
}

func TestViewOnlyOpDeltaHybrid(t *testing.T) {
	view := opdelta.ViewDef{
		Name: "slim_parts", Source: "parts",
		Project:  []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}
	analyzer := opdelta.NewAnalyzer(view)
	src, _, oc, log := sourceWithCapture(t, analyzer)
	schema := partsSchema(t, src)
	w := New(openDB(t))
	if _, err := w.RegisterView(view, schema, nil); err != nil {
		t.Fatal(err)
	}
	oc.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 1), (2, 'b', 200), (3, 'c', 300)`)
	// Predicate over the dropped qty column: hybrid capture kicks in.
	oc.Exec(nil, `DELETE FROM parts WHERE qty >= 200 AND qty < 250`)
	oc.Exec(nil, `UPDATE parts SET status = 'big' WHERE qty > 250`)

	ops, _ := log.Read(0)
	if len(ops) != 3 || ops[1].Before == nil || ops[2].Before == nil {
		t.Fatalf("hybrid capture missing: %+v", ops)
	}
	if _, err := (&ParallelIntegrator{W: w}).Apply(ops); err != nil {
		t.Fatal(err)
	}
	rows := tableRows(t, w.DB, "slim_parts")
	if len(rows) != 2 {
		t.Fatalf("view rows = %v", rows)
	}
	if rows[0][1].Str() != "a" || rows[1][1].Str() != "big" {
		t.Fatalf("view rows = %v", rows)
	}
	// Without before images the same op must fail loudly.
	opsNoBefore := []*opdelta.Op{{Seq: 99, Kind: opdelta.OpDelete, Table: "parts",
		Stmt: `DELETE FROM parts WHERE qty = 1`}}
	if _, err := (&ParallelIntegrator{W: w}).Apply(opsNoBefore); err == nil ||
		!strings.Contains(err.Error(), "before images") {
		t.Fatalf("err = %v", err)
	}
}

func TestJoinViewMaintenance(t *testing.T) {
	src := openDB(t)
	if _, err := src.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Exec(nil, `CREATE TABLE orders (
		order_id BIGINT NOT NULL, part_id BIGINT, amount BIGINT
	) PRIMARY KEY (order_id)`); err != nil {
		t.Fatal(err)
	}
	parts := partsSchema(t, src)
	ordersTbl, _ := src.Table("orders")

	w := New(openDB(t))
	if err := w.RegisterReplica("parts", parts, "part_id", "last_modified"); err != nil {
		t.Fatal(err)
	}
	if err := w.RegisterReplica("orders", ordersTbl.Schema, "order_id", ""); err != nil {
		t.Fatal(err)
	}
	def := opdelta.ViewDef{
		Name: "order_parts", Source: "orders",
		Project: []string{"order_id", "amount", "part_id", "status"},
		Join:    &opdelta.JoinSpec{Table: "parts", LeftCol: "part_id", RightCol: "part_id"},
	}
	if _, err := w.RegisterView(def, ordersTbl.Schema, parts); err != nil {
		t.Fatal(err)
	}

	// Drive the warehouse replicas directly with ops (the integrator's
	// replica path).
	in := &ParallelIntegrator{W: w}
	mustApply := func(stmts ...string) {
		t.Helper()
		var ops []*opdelta.Op
		for i, s := range stmts {
			kind := opdelta.OpInsert
			if strings.HasPrefix(s, "UPDATE") {
				kind = opdelta.OpUpdate
			} else if strings.HasPrefix(s, "DELETE") {
				kind = opdelta.OpDelete
			}
			table := "orders"
			if strings.Contains(s, " parts") || strings.Contains(s, "parts ") {
				if !strings.Contains(s, "order") {
					table = "parts"
				}
			}
			ops = append(ops, &opdelta.Op{Seq: uint64(i + 1), Kind: kind, Table: table, Stmt: s})
		}
		if _, err := in.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	mustApply(
		`INSERT INTO parts (part_id, status, qty) VALUES (1, 'avail', 0), (2, 'back', 0)`,
		`INSERT INTO orders VALUES (100, 1, 5), (101, 2, 7), (102, 1, 9)`,
	)
	rows := tableRows(t, w.DB, "order_parts")
	if len(rows) != 3 {
		t.Fatalf("join view rows = %v", rows)
	}
	// order 100 joined part 1.
	if rows[0][0].Int() != 100 || rows[0][3].Str() != "avail" {
		t.Fatalf("row = %v", rows[0])
	}
	// Update the right side: statuses propagate.
	mustApply(`UPDATE parts SET status = 'gone' WHERE part_id = 1`)
	rows = tableRows(t, w.DB, "order_parts")
	cnt := 0
	for _, r := range rows {
		if r[3].Str() == "gone" {
			cnt++
		}
	}
	if cnt != 2 {
		t.Fatalf("status propagation: %v", rows)
	}
	// Delete an order: its join row disappears.
	mustApply(`DELETE FROM orders WHERE order_id = 101`)
	rows = tableRows(t, w.DB, "order_parts")
	if len(rows) != 2 {
		t.Fatalf("rows after order delete = %v", rows)
	}
	// Delete a part: all its orders' join rows disappear.
	mustApply(`DELETE FROM parts WHERE part_id = 1`)
	rows = tableRows(t, w.DB, "order_parts")
	if len(rows) != 0 {
		t.Fatalf("rows after part delete = %v", rows)
	}
}

func TestJoinViewRequiresReplicas(t *testing.T) {
	src := openDB(t)
	src.Exec(nil, partsDDL)
	parts := partsSchema(t, src)
	w := New(openDB(t))
	def := opdelta.ViewDef{Name: "jv", Source: "orders",
		Join: &opdelta.JoinSpec{Table: "parts", LeftCol: "part_id", RightCol: "part_id"}}
	if _, err := w.RegisterView(def, parts, parts); err == nil {
		t.Fatal("join view without replicas must fail")
	}
}

// TestQuickOpDeltaValueDeltaEquivalence is the core correctness
// property: for random workloads, integrating via value deltas and via
// Op-Deltas yields the same warehouse state (ignoring engine-maintained
// timestamps for the op path), which must also equal the source state.
func TestQuickOpDeltaValueDeltaEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src, err := engine.Open(t.TempDir(), engine.Options{Now: newClock().Now})
		if err != nil {
			return false
		}
		defer src.Close()
		if _, err := src.Exec(nil, partsDDL); err != nil {
			return false
		}
		vc := &extract.TriggerCapture{DB: src, Table: "parts"}
		if err := vc.Install(); err != nil {
			return false
		}
		log, err := opdelta.NewTableLog(src)
		if err != nil {
			return false
		}
		oc := &opdelta.Capture{DB: src, Log: log}

		nextID := int64(0)
		for step := 0; step < 40; step++ {
			var stmt string
			switch r.Intn(4) {
			case 0, 1:
				k := 1 + r.Intn(3)
				vals := make([]string, k)
				for i := range vals {
					vals[i] = fmt.Sprintf("(%d, 's%d', %d)", nextID, r.Intn(4), r.Int63n(100))
					nextID++
				}
				stmt = "INSERT INTO parts (part_id, status, qty) VALUES " + strings.Join(vals, ", ")
			case 2:
				stmt = fmt.Sprintf("UPDATE parts SET qty = qty + %d, status = 'u%d' WHERE part_id BETWEEN %d AND %d",
					r.Int63n(10), r.Intn(4), r.Int63n(nextID+1), r.Int63n(nextID+1))
			case 3:
				lo := r.Int63n(nextID + 1)
				stmt = fmt.Sprintf("DELETE FROM parts WHERE part_id BETWEEN %d AND %d", lo, lo+r.Int63n(4))
			}
			if _, err := oc.Exec(nil, stmt); err != nil {
				return false
			}
		}

		schema, err := src.Table("parts")
		if err != nil {
			return false
		}
		// Value-delta warehouse.
		wv := New(mustOpen(t))
		if err := wv.RegisterReplica("parts", schema.Schema, "part_id", "last_modified"); err != nil {
			return false
		}
		var sink extract.CollectSink
		if _, err := vc.Extract(&sink); err != nil {
			return false
		}
		if _, err := (&ValueDeltaIntegrator{W: wv}).Apply(sink.Deltas); err != nil {
			return false
		}
		// Op-delta warehouse.
		wo := New(mustOpen(t))
		if err := wo.RegisterReplica("parts", schema.Schema, "part_id", "last_modified"); err != nil {
			return false
		}
		ops, err := log.Read(0)
		if err != nil {
			return false
		}
		if _, err := (&ParallelIntegrator{W: wo}).Apply(ops); err != nil {
			return false
		}

		srcRows := tableRows(t, src, "parts")
		vRows := tableRows(t, wv.DB, "parts")
		oRows := tableRows(t, wo.DB, "parts")
		// Value deltas reproduce the source exactly (timestamps included).
		if len(srcRows) != len(vRows) {
			return false
		}
		for i := range srcRows {
			if !srcRows[i].Equal(vRows[i]) {
				return false
			}
		}
		// Op deltas reproduce everything except re-stamped timestamps.
		return rowsEqualIgnoringTS(srcRows, oRows, schema.Schema)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func mustOpen(t *testing.T) *engine.DB {
	db, err := engine.Open(t.TempDir(), engine.Options{Now: newClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestDeltaSQLShapes(t *testing.T) {
	db := openDB(t)
	db.Exec(nil, partsDDL)
	tbl, _ := db.Table("parts")
	now := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	row := catalog.Tuple{catalog.NewInt(1), catalog.NewString("a"), catalog.NewInt(2), catalog.NewTime(now)}
	row2 := catalog.Tuple{catalog.NewInt(1), catalog.NewString("b"), catalog.NewInt(3), catalog.NewTime(now)}

	ins, err := DeltaSQL(extract.Delta{Kind: extract.KindInsert, After: row}, tbl)
	if err != nil || len(ins) != 1 || !strings.HasPrefix(ins[0], "INSERT INTO parts") {
		t.Fatalf("insert sql = %v, %v", ins, err)
	}
	del, err := DeltaSQL(extract.Delta{Kind: extract.KindDelete, Before: row}, tbl)
	if err != nil || len(del) != 1 || del[0] != "DELETE FROM parts WHERE part_id = 1" {
		t.Fatalf("delete sql = %v, %v", del, err)
	}
	upd, err := DeltaSQL(extract.Delta{Kind: extract.KindUpdate, Before: row, After: row2}, tbl)
	if err != nil || len(upd) != 2 {
		t.Fatalf("update sql = %v, %v", upd, err)
	}
	// Error paths.
	if _, err := DeltaSQL(extract.Delta{Kind: extract.KindInsert}, tbl); err == nil {
		t.Fatal("insert without image must fail")
	}
	if _, err := DeltaSQL(extract.Delta{Kind: extract.KindDelete}, tbl); err == nil {
		t.Fatal("delete without image must fail")
	}
	// Round-trip: generated SQL parses.
	for _, s := range append(append(ins, del...), upd...) {
		if _, err := sqlmini.Parse(s); err != nil {
			t.Fatalf("generated SQL does not parse: %q: %v", s, err)
		}
	}
}

func TestValueDeltaBatchAborts(t *testing.T) {
	db := openDB(t)
	db.Exec(nil, partsDDL)
	schema := partsSchema(t, db)
	w := replicaWarehouse(t, schema)
	now := time.Unix(0, 0)
	good := catalog.Tuple{catalog.NewInt(1), catalog.NewString("a"), catalog.NewInt(1), catalog.NewTime(now)}
	deltas := []extract.Delta{
		{Kind: extract.KindInsert, Table: "parts", After: good},
		{Kind: extract.KindInsert, Table: "parts", After: good}, // duplicate PK
	}
	if _, err := (&ValueDeltaIntegrator{W: w}).Apply(deltas); err == nil {
		t.Fatal("duplicate insert must fail the batch")
	}
	// The indivisible batch rolled back entirely.
	if rows := tableRows(t, w.DB, "parts"); len(rows) != 0 {
		t.Fatalf("batch not atomic: %v", rows)
	}
}

func TestViewRenameTransformation(t *testing.T) {
	// The warehouse view renames part_id -> sku and status -> state —
	// the paper's "transformation rules to directly apply the Op-Delta
	// to various schema in data warehouses".
	view := opdelta.ViewDef{
		Name: "catalog_items", Source: "parts",
		Project:  []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
		Rename: map[string]string{"part_id": "sku", "status": "state"},
	}
	analyzer := opdelta.NewAnalyzer(view)
	src, _, oc, log := sourceWithCapture(t, analyzer)
	schema := partsSchema(t, src)

	w := New(openDB(t))
	v, err := w.RegisterView(view, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Schema.Column(0).Name != "sku" || v.Schema.Column(1).Name != "state" {
		t.Fatalf("view schema = %v", v.Schema)
	}

	oc.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'new', 5), (2, 'new', 6)`)
	oc.Exec(nil, `UPDATE parts SET status = 'live' WHERE part_id = 1`) // self-maintainable, renamed
	oc.Exec(nil, `DELETE FROM parts WHERE status = 'new'`)             // self-maintainable, renamed
	oc.Exec(nil, `DELETE FROM parts WHERE qty > 100`)                  // hybrid path (no matches)

	ops, _ := log.Read(0)
	if _, err := (&ParallelIntegrator{W: w}).Apply(ops); err != nil {
		t.Fatal(err)
	}
	_, rows, err := w.DB.Query(nil, `SELECT sku, state FROM catalog_items`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 1 || rows[0][1].Str() != "live" {
		t.Fatalf("renamed view rows = %v", rows)
	}
	// The renamed PK addresses rows for hybrid deletes too.
	hybridOps := []*opdelta.Op{{Seq: 99, Kind: opdelta.OpDelete, Table: "parts", Hybrid: true,
		Stmt:   `DELETE FROM parts WHERE qty = 5`,
		Before: []catalog.Tuple{mustRow(t, src, 1)}}}
	if _, err := (&ParallelIntegrator{W: w}).Apply(hybridOps); err != nil {
		t.Fatal(err)
	}
	_, rows, _ = w.DB.Query(nil, `SELECT sku FROM catalog_items`)
	if len(rows) != 0 {
		t.Fatalf("hybrid delete through rename failed: %v", rows)
	}
}

// mustRow fetches the full source row with the given part_id.
func mustRow(t *testing.T, db *engine.DB, id int64) catalog.Tuple {
	t.Helper()
	// The row may already be deleted at the source; synthesize the
	// image the capture would have recorded.
	return catalog.Tuple{
		catalog.NewInt(id), catalog.NewString("live"),
		catalog.NewInt(5), catalog.NewTime(time.Unix(0, 0)),
	}
}
