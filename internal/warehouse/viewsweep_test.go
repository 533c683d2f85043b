package warehouse

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/extract"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
	"opdelta/internal/wal"
)

// viewseeds bounds the view-maintenance sweep. CI runs a larger bound:
// go test ./internal/warehouse/ -viewseeds 16
var viewseeds = flag.Int("viewseeds", 4, "seeds for the view maintenance sweep")

const (
	sweepPartsDDL = `CREATE TABLE parts (
		part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT, price DOUBLE, last_modified TIMESTAMP
	) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`
	sweepDimDDL = `CREATE TABLE qty_dim (
		qty_key BIGINT NOT NULL, band VARCHAR, note VARCHAR
	) PRIMARY KEY (qty_key)`
)

// sweepViews is what every warehouse of the sweep maintains: projection
// views with and without a selection, a join view with a selection, a
// grouped aggregate with float sums and a filtered ungrouped one, and
// optionally a projection that drops the source PK.
type sweepViews struct {
	sp   []opdelta.ViewDef
	join opdelta.ViewDef
	aggs []AggViewDef
}

func sweepViewDefs(t *testing.T, withNoPK bool) sweepViews {
	t.Helper()
	expr := func(src string) sqlmini.Expr {
		e, err := sqlmini.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	vs := sweepViews{
		sp: []opdelta.ViewDef{
			{Name: "v_slim", Source: "parts", Project: []string{"part_id", "status"}},
			{Name: "v_low", Source: "parts", Project: []string{"part_id", "qty"}, Where: expr("qty < 20")},
		},
		join: opdelta.ViewDef{
			Name: "j_priced", Source: "parts",
			Project: []string{"part_id", "status", "qty", "qty_key", "band"},
			Join:    &opdelta.JoinSpec{Table: "qty_dim", LeftCol: "qty", RightCol: "qty_key"},
			Where:   expr("status <> 's0'"),
		},
		aggs: []AggViewDef{
			{Name: "agg_status", Source: "parts", GroupBy: "status", Aggregates: []sqlmini.AggSpec{
				{Fn: sqlmini.AggCount}, {Fn: sqlmini.AggSum, Col: "qty"}, {Fn: sqlmini.AggCount, Col: "qty"},
				{Fn: sqlmini.AggSum, Col: "price"}, {Fn: sqlmini.AggAvg, Col: "price"},
			}},
			{Name: "agg_total", Source: "parts", Where: expr("qty >= 10"), Aggregates: []sqlmini.AggSpec{
				{Fn: sqlmini.AggCount}, {Fn: sqlmini.AggSum, Col: "price"},
			}},
		},
	}
	if withNoPK {
		vs.sp = append(vs.sp, opdelta.ViewDef{Name: "v_status", Source: "parts", Project: []string{"status"}})
	}
	return vs
}

func (vs sweepViews) names() []string {
	var out []string
	for _, d := range vs.sp {
		out = append(out, d.Name)
	}
	if vs.join.Join != nil {
		out = append(out, vs.join.Name)
	}
	for _, d := range vs.aggs {
		out = append(out, d.Name)
	}
	return out
}

// viewOnly is the sweep's projection views as a deployment without
// replicas declares them: source key and timestamp named, and no join
// or aggregate view, which need replicas.
func (vs sweepViews) viewOnly() sweepViews {
	var out sweepViews
	for _, d := range vs.sp {
		d.SourcePK, d.SourceTS = "part_id", "last_modified"
		out.sp = append(out.sp, d)
	}
	return out
}

// viewOnlyWarehouse builds a warehouse that stores the views and no
// replica: every op reaches them through the transformation rules, with
// the before images hybrid capture attached where a view needs them.
func viewOnlyWarehouse(t *testing.T, vs sweepViews, srcSchema *catalog.Schema) *Warehouse {
	t.Helper()
	db, err := engine.Open(t.TempDir(), engine.Options{Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	w := New(db)
	for _, def := range vs.sp {
		if _, err := w.RegisterView(def, srcSchema, nil); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// sweepWarehouse builds a warehouse with both replicas and the views.
// indexed adds the secondary index the join plan reads view rows
// through when a deployment created one; without it the plan scans.
func sweepWarehouse(t *testing.T, vs sweepViews, indexed bool) *Warehouse {
	t.Helper()
	db, err := engine.Open(t.TempDir(), engine.Options{Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range []string{sweepPartsDDL, sweepDimDDL} {
		_, err := db.Exec(nil, ddl)
		must(err)
	}
	parts, _ := db.Table("parts")
	dim, _ := db.Table("qty_dim")
	w := New(db)
	must(w.RegisterReplica("parts", parts.Schema, "part_id", "last_modified"))
	must(w.RegisterReplica("qty_dim", dim.Schema, "qty_key", ""))
	for _, def := range vs.sp {
		_, err := w.RegisterView(def, parts.Schema, nil)
		must(err)
	}
	_, err = w.RegisterView(vs.join, parts.Schema, dim.Schema)
	must(err)
	for _, def := range vs.aggs {
		_, err := w.RegisterAggView(def, parts.Schema)
		must(err)
	}
	if indexed {
		must(db.CreateSecondaryIndex(vs.join.Name, "part_id"))
	}
	return w
}

// sweepWorkload runs a seeded random transaction mix on a fresh source
// and returns it twice: as the captured op stream, with hybrid capture
// driven by analyzer, and as the value deltas mined from the source's
// log; the source itself comes back for recomputing views from. Part ids start on multiples of
// three, so SET part_id = part_id + 1 over a range lands on free keys
// the first two times a row is shifted and collides after that; a
// statement the source rejects aborts its transaction, which then
// appears in neither stream.
func sweepWorkload(t *testing.T, seed int64, txns int, analyzer *opdelta.Analyzer) ([]*opdelta.Op, []extract.Delta, *engine.DB) {
	t.Helper()
	src := openDB(t)
	for _, ddl := range []string{sweepPartsDDL, sweepDimDDL} {
		if _, err := src.Exec(nil, ddl); err != nil {
			t.Fatal(err)
		}
	}
	log, err := opdelta.NewTableLog(src)
	if err != nil {
		t.Fatal(err)
	}
	oc := &opdelta.Capture{DB: src, Log: log, Analyzer: analyzer}
	rng := rand.New(rand.NewSource(seed))
	const idSpace, dimSpace = 240, 30
	status := func() string { return fmt.Sprintf("'s%d'", rng.Intn(6)) }
	qty := func() string {
		if rng.Intn(10) == 0 {
			return "NULL"
		}
		return fmt.Sprint(rng.Intn(40)) // dimension keys stop at dimSpace: some never match
	}
	price := func() string {
		if rng.Intn(10) == 0 {
			return "NULL"
		}
		return fmt.Sprintf("%.1f", float64(rng.Intn(500))/10) // tenths: inexact in binary
	}
	partRows := func(first, n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %s, %s, %s)", first+3*i, status(), qty(), price())
		}
		return b.String()
	}
	span := func(max, width int) (int, int) {
		lo := rng.Intn(max)
		return lo, lo + rng.Intn(width)
	}

	tx := src.Begin()
	seedStmts := []string{"INSERT INTO parts (part_id, status, qty, price) VALUES " + partRows(0, 40)}
	for k := 0; k < dimSpace; k++ {
		seedStmts = append(seedStmts, fmt.Sprintf("INSERT INTO qty_dim VALUES (%d, 'b%d', 'n')", k, k/5))
	}
	for _, stmt := range seedStmts {
		if _, err := oc.Exec(tx, stmt); err != nil {
			t.Fatalf("seed stmt %q: %v", stmt, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	nextFresh := 120 // multiples of three above the seeded rows
	gen := func(last string) string {
		if last != "" && rng.Intn(3) == 0 {
			return last // the same rows a second time in one transaction
		}
		lo, hi := span(idSpace, 30)
		switch rng.Intn(16) {
		case 0, 1:
			n := 1 + rng.Intn(6)
			first := nextFresh
			nextFresh += 3 * n
			return "INSERT INTO parts (part_id, status, qty, price) VALUES " + partRows(first, n)
		case 2:
			return fmt.Sprintf("DELETE FROM parts WHERE part_id BETWEEN %d AND %d", lo, hi)
		case 3, 4:
			return fmt.Sprintf("UPDATE parts SET status = %s WHERE part_id BETWEEN %d AND %d", status(), lo, hi)
		case 5:
			return fmt.Sprintf("UPDATE parts SET qty = qty + %d WHERE part_id BETWEEN %d AND %d", rng.Intn(15)-5, lo, hi)
		case 6:
			return fmt.Sprintf("UPDATE parts SET price = price * 1.5, qty = %s WHERE part_id BETWEEN %d AND %d", qty(), lo, hi)
		case 7:
			return fmt.Sprintf("UPDATE parts SET price = price + 0.1 WHERE part_id BETWEEN %d AND %d", lo, hi)
		case 8, 9:
			return fmt.Sprintf("UPDATE parts SET part_id = part_id + 1 WHERE part_id BETWEEN %d AND %d", lo, hi)
		case 10:
			if rng.Intn(2) == 0 {
				return fmt.Sprintf("DELETE FROM parts WHERE status = %s AND qty < 8", status())
			}
			return fmt.Sprintf("UPDATE parts SET status = %s WHERE qty = %d", status(), rng.Intn(40))
		case 11:
			s := status()
			return fmt.Sprintf("UPDATE parts SET status = %s WHERE status = %s", s, s) // nothing a view shows changes
		case 12:
			a, b := span(dimSpace, 8)
			return fmt.Sprintf("UPDATE qty_dim SET band = 'b%d' WHERE qty_key BETWEEN %d AND %d", rng.Intn(9), a, b)
		case 13:
			a, b := span(dimSpace, 8)
			return fmt.Sprintf("UPDATE qty_dim SET note = 'n%d' WHERE qty_key BETWEEN %d AND %d", rng.Intn(9), a, b)
		case 14:
			k := rng.Intn(dimSpace)
			if rng.Intn(2) == 0 {
				return fmt.Sprintf("DELETE FROM qty_dim WHERE qty_key = %d", k)
			}
			return fmt.Sprintf("INSERT INTO qty_dim VALUES (%d, 'b%d', 'back')", k, rng.Intn(9))
		default:
			return fmt.Sprintf("UPDATE qty_dim SET qty_key = qty_key + %d WHERE qty_key = %d", 1+rng.Intn(3), rng.Intn(dimSpace))
		}
	}
	for i := 0; i < txns; i++ {
		tx := src.Begin()
		failed, last := false, ""
		for s := 0; s < 1+rng.Intn(3); s++ {
			last = gen(last)
			if _, err := oc.Exec(tx, last); err != nil {
				// Duplicate keys from shifts and re-inserts are part of
				// the mix; anything else is a broken generator.
				if !strings.Contains(err.Error(), "duplicate primary key") {
					t.Fatalf("workload stmt %q: %v", last, err)
				}
				failed = true
				break
			}
		}
		if failed {
			tx.Abort()
		} else if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	ops, err := log.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WAL().Flush(); err != nil {
		t.Fatal(err)
	}
	parts, _ := src.Table("parts")
	dim, _ := src.Table("qty_dim")
	var sink extract.CollectSink
	miner := &extract.LogMiner{Dir: src.WALDir(), Schemas: map[string]*catalog.Schema{
		"parts": parts.Schema, "qty_dim": dim.Schema,
	}}
	if _, err := miner.Extract(&sink); err != nil {
		t.Fatal(err)
	}
	return ops, sink.Deltas, src
}

func tableTuples(t *testing.T, db *engine.DB, name string) []catalog.Tuple {
	t.Helper()
	var rows []catalog.Tuple
	if err := db.ScanTable(nil, name, func(tup catalog.Tuple) error {
		rows = append(rows, tup)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// recompute evaluates every view definition of w over the parts and
// qty_dim tables of base: the warehouse's own replicas, or the source.
func recompute(t *testing.T, base *engine.DB, w *Warehouse, vs sweepViews) map[string][]catalog.Tuple {
	t.Helper()
	parts := tableTuples(t, base, "parts")
	dim := tableTuples(t, base, "qty_dim")
	pt, _ := base.Table("parts")
	dt, _ := base.Table("qty_dim")
	col := func(s *catalog.Schema, name string) int {
		i, ok := s.ColIndex(name)
		if !ok {
			t.Fatalf("no column %q", name)
		}
		return i
	}
	selected := func(where sqlmini.Expr, row catalog.Tuple) bool {
		ok, err := sqlmini.EvalPredicate(where, pt.Schema, row)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	out := make(map[string][]catalog.Tuple)
	for _, def := range vs.sp {
		out[def.Name] = nil
		for _, row := range parts {
			if !selected(def.Where, row) {
				continue
			}
			var v catalog.Tuple
			for _, name := range def.Project {
				v = append(v, row[col(pt.Schema, name)])
			}
			out[def.Name] = append(out[def.Name], v)
		}
	}
	if vs.join.Join != nil {
		lc, rc := col(pt.Schema, vs.join.Join.LeftCol), col(dt.Schema, vs.join.Join.RightCol)
		out[vs.join.Name] = nil
		for _, l := range parts {
			if !selected(vs.join.Where, l) || l[lc].IsNull() {
				continue
			}
			for _, r := range dim {
				if !catalog.Equal(l[lc], r[rc]) {
					continue
				}
				var v catalog.Tuple
				for _, name := range vs.join.Project {
					if i, ok := pt.Schema.ColIndex(name); ok {
						v = append(v, l[i])
					} else {
						v = append(v, r[col(dt.Schema, name)])
					}
				}
				out[vs.join.Name] = append(out[vs.join.Name], v)
			}
		}
	}
	for _, def := range vs.aggs {
		type acc struct {
			key  catalog.Value
			n    int64
			vals []float64
		}
		groups := map[string]*acc{}
		var order []string
		for _, row := range parts {
			if !selected(def.Where, row) {
				continue
			}
			g := acc{}
			if def.GroupBy != "" {
				g.key = row[col(pt.Schema, def.GroupBy)]
			}
			k := g.key.SQLLiteral()
			if groups[k] == nil {
				g.vals = make([]float64, len(def.Aggregates))
				groups[k] = &g
				order = append(order, k)
			}
			a := groups[k]
			a.n++
			for i, spec := range def.Aggregates {
				if spec.Col == "" {
					a.vals[i]++
					continue
				}
				v := row[col(pt.Schema, spec.Col)]
				switch {
				case v.IsNull():
				case spec.Fn == sqlmini.AggCount:
					a.vals[i]++
				case v.Type() == catalog.TypeInt64:
					a.vals[i] += float64(v.Int())
				default:
					a.vals[i] += v.Float()
				}
			}
		}
		view, _ := w.DB.Table(def.Name)
		out[def.Name] = nil
		for _, k := range order {
			a := groups[k]
			var v catalog.Tuple
			if def.GroupBy != "" {
				v = append(v, a.key)
			}
			v = append(v, catalog.NewInt(a.n))
			for i := range def.Aggregates {
				if view.Schema.Column(len(v)).Type == catalog.TypeInt64 {
					v = append(v, catalog.NewInt(int64(a.vals[i])))
				} else {
					v = append(v, catalog.NewFloat(a.vals[i]))
				}
			}
			out[def.Name] = append(out[def.Name], v)
		}
	}
	return out
}

// diffRows compares two row multisets. Rows are matched up by their
// non-float columns; float columns must then be bit-identical, or with
// tol agree to rounding (sums taken in another order).
func diffRows(a, b []catalog.Tuple, tol bool) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d rows vs %d", len(a), len(b))
	}
	key := func(row catalog.Tuple) string {
		var parts []string
		for _, v := range row {
			if v.Type() != catalog.TypeFloat64 {
				parts = append(parts, v.SQLLiteral())
			}
		}
		return strings.Join(parts, "|")
	}
	sorted := func(rows []catalog.Tuple) []catalog.Tuple {
		out := append([]catalog.Tuple(nil), rows...)
		sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
		return out
	}
	a, b = sorted(a), sorted(b)
	for i := range a {
		if key(a[i]) != key(b[i]) || len(a[i]) != len(b[i]) {
			return fmt.Sprintf("row %d: %v vs %v", i, a[i], b[i])
		}
		for c := range a[i] {
			x, y := a[i][c], b[i][c]
			if x.Type() != catalog.TypeFloat64 || x.IsNull() || y.IsNull() {
				continue // non-floats and NULLs went through key
			}
			same := math.Float64bits(x.Float()) == math.Float64bits(y.Float())
			if tol {
				scale := math.Max(1, math.Max(math.Abs(x.Float()), math.Abs(y.Float())))
				same = math.Abs(x.Float()-y.Float()) <= 1e-9*scale
			}
			if !same {
				return fmt.Sprintf("row %d column %d: %v (%#x) vs %v (%#x)", i, c,
					x, math.Float64bits(x.Float()), y, math.Float64bits(y.Float()))
			}
		}
	}
	return ""
}

// TestViewMaintenanceMatchesRecompute is the property test of the delta
// plans. One seeded stream of random multi-row statements — rows moving
// between groups, groups emptied and revived, selections entered and
// left, NULL join keys and aggregate inputs, primary keys shifted onto
// neighbouring keys, dimension rows rewritten, rows touched twice in a
// transaction — goes through the op integrator at one worker and at
// four, and through the value-delta integrator. Every view must equal
// its definition recomputed from the warehouse's own replicas, and must
// equal what the per-row triggers the plans replaced (reference_test.go)
// leave behind under the serial reference replay: bit for bit, float
// sums included, where both fold in the same order — one worker replays
// in source order — and to rounding against the 4-worker run, which
// reorders key-disjoint transactions. The same op stream also goes to
// a warehouse that stores only the projection views, no replica: the
// view-only Op-Delta path, fed the before images hybrid capture
// attached, whose views must equal their definitions recomputed from
// the source.
func TestViewMaintenanceMatchesRecompute(t *testing.T) {
	for seed := int64(1); seed <= int64(*viewseeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Even seeds add the PK-dropping view (and with it the
			// parallel integrator's serial-order degradation); odd seeds
			// read the join view through a secondary index.
			vs := sweepViewDefs(t, seed%2 == 0)
			refViews := sweepViewDefs(t, false)
			viewOnly := vs.viewOnly()
			ops, deltas, src := sweepWorkload(t, seed, 45, opdelta.NewAnalyzer(viewOnly.sp...))
			srcParts, err := src.Table("parts")
			if err != nil {
				t.Fatal(err)
			}

			type run struct {
				name     string
				w        *Warehouse
				apply    func(w *Warehouse) error
				ref      string // the reference run it must match exactly, if any
				viewOnly bool   // no replicas: recomputed from the source
			}
			applyOps := func(w *Warehouse) error {
				_, err := (&ParallelIntegrator{W: w}).Apply(ops)
				return err
			}
			applyValue := func(w *Warehouse) error {
				_, err := (&ValueDeltaIntegrator{W: w}).Apply(deltas)
				return err
			}
			runs := []*run{
				{name: "ref/op", apply: func(w *Warehouse) error {
					_, err := refSerialApply(w, ops)
					return err
				}},
				{name: "ref/value", apply: applyValue},
				{name: "op", apply: applyOps, ref: "ref/op"},
				{name: "value", apply: applyValue, ref: "ref/value"},
				{name: "parallel", apply: func(w *Warehouse) error {
					_, err := (&ParallelIntegrator{W: w, Workers: 4}).Apply(ops)
					return err
				}},
				{name: "view-only", apply: applyOps, viewOnly: true},
			}
			byName := map[string]*run{}
			for _, r := range runs {
				byName[r.name] = r
				switch {
				case r.viewOnly:
					r.w = viewOnlyWarehouse(t, viewOnly, srcParts.Schema)
				case strings.HasPrefix(r.name, "ref/"):
					r.w = sweepWarehouse(t, refViews, seed%2 == 1)
					useReferenceMaintenance(t, r.w)
				default:
					r.w = sweepWarehouse(t, vs, seed%2 == 1)
				}
				if err := r.apply(r.w); err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
			}
			for _, r := range runs {
				if strings.HasPrefix(r.name, "ref/") {
					continue
				}
				if r.viewOnly {
					want := recompute(t, src, r.w, viewOnly)
					for _, view := range viewOnly.names() {
						if d := diffRows(tableTuples(t, r.w.DB, view), want[view], false); d != "" {
							t.Errorf("%s: %s differs from its definition over the source: %s", r.name, view, d)
						}
					}
					continue
				}
				want := recompute(t, r.w.DB, r.w, vs)
				for _, view := range vs.names() {
					got := tableTuples(t, r.w.DB, view)
					if d := diffRows(got, want[view], true); d != "" {
						t.Errorf("%s: %s differs from its definition over the replica: %s", r.name, view, d)
					}
					if len(want[view]) == 0 {
						t.Logf("%s: %s ended empty", r.name, view)
					}
				}
				for _, view := range refViews.names() {
					ref, exact := byName["ref/op"], false
					if r.ref != "" {
						ref, exact = byName[r.ref], true
					}
					got, old := tableTuples(t, r.w.DB, view), tableTuples(t, ref.w.DB, view)
					if d := diffRows(got, old, !exact); d != "" {
						t.Errorf("%s: %s differs from per-row maintenance (%s): %s", r.name, view, ref.name, d)
					}
				}
			}
		})
	}
}

// TestPKDroppingViewDeletesOneOccurrence is the regression test for the
// lost-rows bug: a projection that drops the source PK holds duplicates,
// and deleting one source row must remove exactly one of them. The old
// full-row-match DELETE removed all three.
func TestPKDroppingViewDeletesOneOccurrence(t *testing.T) {
	src := openDB(t)
	if _, err := src.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	schema := partsSchema(t, src)
	w := replicaWarehouse(t, schema)
	if _, err := w.RegisterView(opdelta.ViewDef{
		Name: "v_status", Source: "parts", Project: []string{"status"},
	}, schema, nil); err != nil {
		t.Fatal(err)
	}
	statuses := func() string {
		var out []string
		for _, row := range tableTuples(t, w.DB, "v_status") {
			out = append(out, row[0].SQLLiteral())
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	step := func(stmt, want string) {
		t.Helper()
		if _, err := w.DB.Exec(nil, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if got := statuses(); got != want {
			t.Fatalf("after %s: view holds [%s], want [%s]", stmt, got, want)
		}
	}
	step(`INSERT INTO parts (part_id, status) VALUES (1, 'a'), (2, 'a'), (3, 'a'), (4, 'b'), (5, NULL)`,
		`'a','a','a','b',NULL`)
	step(`DELETE FROM parts WHERE part_id = 2`, `'a','a','b',NULL`)
	step(`UPDATE parts SET status = 'b' WHERE part_id = 1`, `'a','b','b',NULL`)
	step(`UPDATE parts SET status = 'a' WHERE part_id >= 4`, `'a','a','a','b'`) // two rows swap values, one was NULL
	step(`DELETE FROM parts WHERE part_id >= 3`, `'b'`)
}

// TestAggPlanWritesEachGroupOnce pins the set-oriented bound by counts
// that repeat exactly: a 200-row UPDATE moving rows from one status
// group to another writes two rows of the aggregate view — two WAL
// records — and stages two versions on it, where per-row maintenance
// wrote and staged four per source row.
func TestAggPlanWritesEachGroupOnce(t *testing.T) {
	src := openDB(t)
	if _, err := src.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	schema := partsSchema(t, src)
	w := replicaWarehouse(t, schema)
	if _, err := w.RegisterAggView(AggViewDef{
		Name: "parts_by_status", Source: "parts", GroupBy: "status",
		Aggregates: []sqlmini.AggSpec{{Fn: sqlmini.AggCount}, {Fn: sqlmini.AggSum, Col: "qty"}},
	}, schema); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO parts (part_id, status, qty) VALUES ")
	for i := 0; i < 250; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, '%s', %d)", i, map[bool]string{true: "a", false: "b"}[i < 220], i)
	}
	if _, err := w.DB.Exec(nil, b.String()); err != nil {
		t.Fatal(err)
	}
	if err := w.DB.WAL().Flush(); err != nil {
		t.Fatal(err)
	}
	from := w.DB.WAL().NextLSN()
	// Every Stage call observes this histogram once, whether or not it
	// lengthens a chain.
	stages := w.DB.Obs().Histogram("mvcc_version_chain_length", obs.CountBuckets)
	stagedBefore := stages.Count()
	res, err := w.DB.Exec(nil, `UPDATE parts SET status = 'b' WHERE part_id BETWEEN 0 AND 199`)
	if err != nil || res.RowsAffected != 200 {
		t.Fatalf("update: %d rows, %v", res.RowsAffected, err)
	}
	if err := w.DB.WAL().Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.ReadAll(w.DB.WALDir())
	if err != nil {
		t.Fatal(err)
	}
	viewWrites := 0
	for _, r := range recs {
		if r.LSN >= from && r.Table == "parts_by_status" {
			viewWrites++
		}
	}
	if viewWrites != 2 {
		t.Fatalf("the statement wrote %d rows of parts_by_status, want 2 (one per group)", viewWrites)
	}
	// 200 on the replica, one per rewritten row; the rest is the view.
	if staged := stages.Count() - stagedBefore - 200; staged != 2 {
		t.Fatalf("the statement staged %d versions on parts_by_status, want 2", staged)
	}
	_, rows, err := w.DB.Query(nil, `SELECT * FROM parts_by_status ORDER BY status`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][1].Int() != 20 || rows[1][1].Int() != 230 {
		t.Fatalf("groups = %v", rows)
	}
}

// TestAggPlanGroupEmptiedAndRevived walks one statement through a group
// that empties and comes back: the revived accumulator starts from zero,
// not from whatever the float sum had drifted to, exactly as deleting
// and re-creating the group row did.
func TestAggPlanGroupEmptiedAndRevived(t *testing.T) {
	vs := sweepViewDefs(t, false)
	w, ref := sweepWarehouse(t, vs, false), sweepWarehouse(t, vs, false)
	useReferenceMaintenance(t, ref)
	stmts := []string{
		// 0.1 + 0.2 - 0.1 - 0.2 is not 0 in binary: group s1 empties
		// with a residue in its sum, then row 3 revives it.
		`INSERT INTO parts (part_id, status, qty, price) VALUES (1, 's1', 1, 0.1), (2, 's1', 2, 0.2), (3, 's2', 3, 0.3)`,
		`UPDATE parts SET status = 's2' WHERE part_id <= 2`,
		`UPDATE parts SET status = 's1' WHERE part_id >= 1`,
		// One statement: rows 1 and 2 leave s1 (emptying it after row 3
		// has not yet arrived), row 3 re-enters it.
		`UPDATE parts SET status = 's3', price = price * 3 WHERE part_id <= 2`,
		`DELETE FROM parts WHERE part_id >= 1`,
	}
	for _, stmt := range stmts {
		for _, wh := range []*Warehouse{w, ref} {
			if _, err := wh.DB.Exec(nil, stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		for _, view := range []string{"agg_status", "agg_total"} {
			if d := diffRows(tableTuples(t, w.DB, view), tableTuples(t, ref.DB, view), false); d != "" {
				t.Fatalf("after %s: %s differs from per-row maintenance: %s", stmt, view, d)
			}
		}
	}
	if rows := tableTuples(t, w.DB, "agg_status"); len(rows) != 0 {
		t.Fatalf("groups left after deleting every row: %v", rows)
	}
}

// TestNullGroupKeyRejectedAsBefore: an aggregate view's group column is
// its table's primary key, so a NULL group cannot be stored. The plan
// must fail the statement, like per-row maintenance did, and leave
// replica and view as they were.
func TestNullGroupKeyRejectedAsBefore(t *testing.T) {
	vs := sweepViewDefs(t, false)
	w, ref := sweepWarehouse(t, vs, false), sweepWarehouse(t, vs, false)
	useReferenceMaintenance(t, ref)
	for _, wh := range []*Warehouse{w, ref} {
		if _, err := wh.DB.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES (1, 's1', 1)`); err != nil {
			t.Fatal(err)
		}
		for _, stmt := range []string{
			`INSERT INTO parts (part_id, status, qty) VALUES (2, 's1', 2), (3, NULL, 3)`,
			`UPDATE parts SET status = NULL WHERE part_id = 1`,
		} {
			if _, err := wh.DB.Exec(nil, stmt); err == nil || !strings.Contains(err.Error(), "NULL primary key") {
				t.Fatalf("%s: err = %v, want the NULL-key rejection", stmt, err)
			}
		}
		if rows := tableTuples(t, wh.DB, "parts"); len(rows) != 1 {
			t.Fatalf("replica after rejected statements: %v", rows)
		}
		rows := tableTuples(t, wh.DB, "agg_status")
		if len(rows) != 1 || rows[0][0].Str() != "s1" || rows[0][1].Int() != 1 {
			t.Fatalf("view after rejected statements: %v", rows)
		}
	}
}

// TestFailingHookRollsStatementBack: the plans run inside the replayed
// statement's transaction, after every row of the statement and before
// its commit, so a hook that fails after the views were already
// maintained takes the replica rows and the view rows down together.
func TestFailingHookRollsStatementBack(t *testing.T) {
	vs := sweepViewDefs(t, true)
	w := sweepWarehouse(t, vs, true)
	ok := []*opdelta.Op{
		{Seq: 1, Txn: 1, Kind: opdelta.OpInsert, Table: "qty_dim", Stmt: `INSERT INTO qty_dim VALUES (5, 'b1', 'n')`},
		{Seq: 2, Txn: 2, Kind: opdelta.OpInsert, Table: "parts",
			Stmt: `INSERT INTO parts (part_id, status, qty, price) VALUES (1, 's1', 5, 1.5), (2, 's2', 5, 2.5)`},
	}
	if _, err := (&ParallelIntegrator{W: w}).Apply(ok); err != nil {
		t.Fatal(err)
	}
	before := map[string][]catalog.Tuple{}
	tables := append([]string{"parts"}, vs.names()...)
	for _, name := range tables {
		before[name] = tableTuples(t, w.DB, name)
	}
	boom := errors.New("boom")
	if err := w.DB.CreateStatementHook("parts", engine.StatementHook{
		Name: "zz_fail", Fn: func(*engine.Tx, *engine.StatementDelta) error { return boom },
	}); err != nil {
		t.Fatal(err)
	}
	bad := []*opdelta.Op{{Seq: 3, Txn: 3, Kind: opdelta.OpUpdate, Table: "parts",
		Stmt: `UPDATE parts SET status = 's3', qty = qty + 20, part_id = part_id + 10 WHERE part_id >= 1`}}
	integrators := map[string]func() error{
		"serial": func() error { _, err := (&ParallelIntegrator{W: w}).Apply(bad); return err },
		"parallel": func() error {
			_, err := (&ParallelIntegrator{W: w, Workers: 4}).Apply(bad)
			return err
		},
	}
	for name, apply := range integrators {
		if err := apply(); !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want the hook's", name, err)
		}
		for _, table := range tables {
			if d := diffRows(tableTuples(t, w.DB, table), before[table], false); d != "" {
				t.Fatalf("%s: %s changed by a statement that failed: %s", name, table, d)
			}
		}
	}
}

// TestViewOnlyValueDeltasThroughPlan drives the view-only value-delta
// path — no replica, every record a one-row batch for the view's plan —
// including the timestamp method's upserts, which carry no before image:
// whatever view row holds the key gives way, and a row the selection
// rejects leaves.
func TestViewOnlyValueDeltasThroughPlan(t *testing.T) {
	src := openDB(t)
	if _, err := src.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	schema := partsSchema(t, src)
	where, err := sqlmini.ParseExpr(`qty < 100`)
	if err != nil {
		t.Fatal(err)
	}
	w := New(openDB(t))
	if _, err := w.RegisterView(opdelta.ViewDef{
		Name: "small_parts", Source: "parts", Project: []string{"part_id", "status"},
		Where: where, SourcePK: "part_id",
	}, schema, nil); err != nil {
		t.Fatal(err)
	}
	row := func(id int64, status string, qty int64) catalog.Tuple {
		return catalog.Tuple{catalog.NewInt(id), catalog.NewString(status), catalog.NewInt(qty), catalog.NewTime(fixedNow())}
	}
	steps := []struct {
		delta extract.Delta
		want  string
	}{
		{extract.Delta{Kind: extract.KindInsert, After: row(1, "a", 10)}, "1:a"},
		{extract.Delta{Kind: extract.KindInsert, After: row(2, "b", 500)}, "1:a"},
		{extract.Delta{Kind: extract.KindUpsert, After: row(3, "c", 30)}, "1:a 3:c"},   // absent: inserted
		{extract.Delta{Kind: extract.KindUpsert, After: row(1, "a2", 11)}, "1:a2 3:c"}, // present: replaced
		{extract.Delta{Kind: extract.KindUpsert, After: row(3, "c", 300)}, "1:a2"},     // now rejected: leaves
		{extract.Delta{Kind: extract.KindUpsert, After: row(4, "d", 400)}, "1:a2"},
		{extract.Delta{Kind: extract.KindUpdate, Before: row(2, "b", 500), After: row(2, "b", 50)}, "1:a2 2:b"},
		{extract.Delta{Kind: extract.KindUpdate, Before: row(1, "a2", 11), After: row(1, "a2", 12)}, "1:a2 2:b"},
		{extract.Delta{Kind: extract.KindUpdate, Before: row(1, "a2", 12), After: row(7, "a7", 12)}, "2:b 7:a7"},
		{extract.Delta{Kind: extract.KindDelete, Before: row(2, "b", 50)}, "7:a7"},
	}
	for i, step := range steps {
		step.delta.Table = "parts"
		if _, err := (&ValueDeltaIntegrator{W: w}).Apply([]extract.Delta{step.delta}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		var got []string
		for _, r := range tableRows(t, w.DB, "small_parts") {
			got = append(got, fmt.Sprintf("%d:%s", r[0].Int(), r[1].Str()))
		}
		if strings.Join(got, " ") != step.want {
			t.Fatalf("step %d: view = %v, want %s", i, got, step.want)
		}
	}
}

// TestValueKeyAgreesWithEqual: plans key groups and probes by valueKey,
// so two values must share a key exactly when the engine's indexes call
// them equal — the two float zeros and every NaN included.
func TestValueKeyAgreesWithEqual(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	vals := []catalog.Value{
		catalog.NewInt(0), catalog.NewInt(1), catalog.NewInt(-1),
		catalog.NewFloat(0), catalog.NewFloat(math.Copysign(0, -1)), catalog.NewFloat(1.5),
		catalog.NewFloat(math.NaN()), catalog.NewFloat(nan2),
		catalog.NewString(""), catalog.NewString("a"), catalog.NewString("b"),
		catalog.NewBytes([]byte("a")), catalog.NewBytes([]byte("b")),
		catalog.NewBool(true), catalog.NewBool(false),
		catalog.NewTime(fixedNow()), catalog.NewTime(fixedNow().Add(1)),
		catalog.NewNull(catalog.TypeInt64), catalog.NewNull(catalog.TypeInt64),
	}
	for i, a := range vals {
		for j, b := range vals {
			if a.Type() != b.Type() {
				continue // a column has one type
			}
			if equal, same := catalog.Equal(a, b), keyOf(a) == keyOf(b); equal != same {
				t.Errorf("values %d (%v) and %d (%v): Equal = %v, same key = %v", i, a, j, b, equal, same)
			}
		}
	}
}
