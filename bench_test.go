// Root benchmarks: one testing.B benchmark per paper table and figure
// (wrapping the internal/bench experiment runners, reporting the
// headline ratio of each artifact as a custom metric), plus
// micro-benchmarks of the core capture and integration paths.
//
//	go test -bench=. -benchmem
package opdelta_test

import (
	"fmt"
	"math/rand"
	"testing"

	"opdelta"
	"opdelta/internal/bench"
	iopdelta "opdelta/internal/opdelta"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
	"opdelta/internal/workload"
)

// experimentCfg keeps the table/figure wrappers at a per-iteration cost
// of a few seconds.
func experimentCfg(b *testing.B) bench.Config {
	b.Helper()
	return bench.Config{
		WorkDir:   b.TempDir(),
		TableRows: 20_000,
		DeltaRows: []int{5_000, 10_000, 20_000},
		TxnSizes:  []int{10, 100, 1000},
		Repeats:   3,
	}
}

// BenchmarkTable1 regenerates Table 1 (Export / Import / DBMS Loader)
// and reports the Import-to-Loader ratio at the largest delta.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable1(experimentCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		big := res.ColHeads[len(res.ColHeads)-1]
		b.ReportMetric(res.Get("Import", big)/res.Get("DBMS Loader", big), "import/loader")
	}
}

// BenchmarkTables2And3 regenerates Tables 2 and 3 (timestamp extraction
// output shapes and end-to-end paths) and reports the end-to-end
// table-path to file-path ratio.
func BenchmarkTables2And3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t3, err := bench.RunTables23(experimentCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		big := t3.ColHeads[len(t3.ColHeads)-1]
		b.ReportMetric(
			t3.Get("Time Stamp table output + Export + Import", big)/
				t3.Get("Time Stamp file output + DBMS Loader", big),
			"tablepath/filepath")
	}
}

// BenchmarkFigure2 regenerates Figure 2 (trigger overhead) and reports
// the insert overhead percentage at the largest transaction size.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFigure2(experimentCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		big := res.ColHeads[len(res.ColHeads)-1]
		b.ReportMetric(res.Get("Insert", big), "insert-overhead-%")
		b.ReportMetric(res.Get("Update", big), "update-overhead-%")
	}
}

// BenchmarkFigure3 regenerates Figure 3 (Op-Delta capture overhead).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFigure3(experimentCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		big := res.ColHeads[len(res.ColHeads)-1]
		b.ReportMetric(res.Get("Insert", big), "insert-overhead-%")
		b.ReportMetric(res.Get("Update", big), "update-overhead-%")
	}
}

// BenchmarkTable4 regenerates Table 4 (DB op log vs file op log) and
// reports the insert response-time ratio at the largest size.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable4(experimentCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		big := res.ColHeads[len(res.ColHeads)-1]
		b.ReportMetric(res.Get("Insert (DBLog)", big)/res.Get("Insert (FileLog)", big), "dblog/filelog")
	}
}

// BenchmarkMaintWindow regenerates the §4.1 maintenance-window
// comparison (E7) and reports the update-window ratio.
func BenchmarkMaintWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunMaintWindow(experimentCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		big := res.ColHeads[len(res.ColHeads)-1]
		b.ReportMetric(res.Get("Update (ValueDelta)", big)/res.Get("Update (OpDelta)", big), "value/op-window")
	}
}

// BenchmarkRemoteCapture regenerates E8 and reports the remote/local
// capture cost ratio.
func BenchmarkRemoteCapture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunRemoteCapture(experimentCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Get("Ratio (x)", "txn response time"), "remote/local")
	}
}

// BenchmarkConcurrent regenerates E9 and reports the worst reader
// latency under each integrator.
func BenchmarkConcurrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunConcurrent(experimentCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Get("ValueDelta batch", "max reader latency"), "value-maxlat-ms")
		b.ReportMetric(res.Get("OpDelta parallel w=1", "max reader latency"), "op-maxlat-ms")
	}
}

// BenchmarkVolume regenerates E10 and reports the value/op volume ratio
// for update transactions at the largest size.
func BenchmarkVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunVolume(experimentCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		big := res.ColHeads[len(res.ColHeads)-1]
		b.ReportMetric(res.Get("Update (ValueDelta)", big)/res.Get("Update (OpDelta)", big), "value/op-bytes")
	}
}

// --- Micro-benchmarks of the core paths -------------------------------

func newBenchSource(b *testing.B, rows int) *opdelta.DB {
	b.Helper()
	clock := workload.NewClock()
	db, err := opdelta.Open(b.TempDir(), opdelta.Options{Now: clock.Now})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := workload.CreateParts(db); err != nil {
		b.Fatal(err)
	}
	if err := workload.Populate(db, rows); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkEngineInsert measures the plain single-row insert path.
func BenchmarkEngineInsert(b *testing.B) {
	db := newBenchSource(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(nil, workload.SingleInsertStmt(int64(10_000+i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineInsertWithTrigger measures the same insert with
// trigger-based value capture installed (Figure 2's instrumented path).
func BenchmarkEngineInsertWithTrigger(b *testing.B) {
	db := newBenchSource(b, 1000)
	cap := &opdelta.TriggerCapture{DB: db, Table: "parts"}
	if err := cap.Install(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(nil, workload.SingleInsertStmt(int64(10_000+i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineInsertWithOpCapture measures the same insert with
// Op-Delta capture into a table log (Figure 3's instrumented path).
func BenchmarkEngineInsertWithOpCapture(b *testing.B) {
	db := newBenchSource(b, 1000)
	log, err := opdelta.NewTableLog(db)
	if err != nil {
		b.Fatal(err)
	}
	capture := &opdelta.Capture{DB: db, Log: log}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := capture.Exec(nil, workload.SingleInsertStmt(int64(10_000+i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableLogTailRead measures what the shipper pays per poll: a
// Read from a cursor 64 ops behind the head. It is served from the
// log's committed-op tail, so a log of 100 k ops must cost the same per
// call — and allocate as little, nothing — as one of 1 k.
func BenchmarkTableLogTailRead(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("log=%d", n), func(b *testing.B) {
			db := newBenchSource(b, 0)
			log, err := opdelta.NewTableLog(db)
			if err != nil {
				b.Fatal(err)
			}
			for done := 0; done < n; {
				tx := db.Begin()
				for i := 0; i < 1000; i, done = i+1, done+1 {
					op := &opdelta.Op{Txn: uint64(tx.ID()), Kind: iopdelta.OpUpdate, Table: "parts",
						Stmt: fmt.Sprintf("UPDATE parts SET qty = %d WHERE part_id = %d", done, done%1000)}
					if err := log.Append(tx, op); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			from := log.Seq() - 64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops, err := log.Read(from)
				if err != nil || len(ops) != 64 {
					b.Fatalf("Read(%d) = %d ops, %v", from, len(ops), err)
				}
			}
		})
	}
}

// BenchmarkRebuildIndex rebuilds the primary-key index of a 20 000-row
// parts heap written by the loader (DirectLoad), the index build that
// follows every direct-path load and every Open. CI gates its
// allocs/op: a count, which the box's speed cannot move.
func BenchmarkRebuildIndex(b *testing.B) {
	db := newBenchSource(b, 20_000)
	t, err := db.Table("parts")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.RebuildIndex(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeUpdate measures an indexed 100-row range update.
func BenchmarkRangeUpdate(b *testing.B) {
	db := newBenchSource(b, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := int64((i * 100) % 19_000)
		if _, err := db.Exec(nil, workload.UpdateStmt(first, 100, fmt.Sprintf("m%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeUpdateWithViews measures one replayed 200-row UPDATE on
// a warehouse replica that maintains the three views of the range-views
// benchmark workload: the projection slim_parts, the aggregate
// parts_by_status and the join parts_priced (with the secondary index on
// its part_id the benchmark creates). view-wal-appends/op is the number
// of WAL records the statement writes for the view tables, a count that
// repeats exactly: 200 + 200 in-place rewrites plus at most one record
// per status group the statement touches. Its markers m0…m6 are 2 bytes,
// so after the first pass no record grows.
func BenchmarkRangeUpdateWithViews(b *testing.B) {
	benchRangeUpdateWithViews(b, func(i int) string { return fmt.Sprintf("m%d", i%7) })
}

// BenchmarkRangeUpdateGrowWithViews is BenchmarkRangeUpdateWithViews with
// the statuses the range-views workload writes, 3 to 7 bytes long: a
// status that outgrows its predecessor grows the record in the base
// table and in both projecting views, so full pages compact.
func BenchmarkRangeUpdateGrowWithViews(b *testing.B) {
	benchRangeUpdateWithViews(b, func(i int) string { return workload.Status(int64(i)) })
}

func benchRangeUpdateWithViews(b *testing.B, marker func(i int) string) {
	const rows, dims = 20_000, 1_000
	clock := workload.NewClock()
	db, err := opdelta.Open(b.TempDir(), opdelta.Options{Now: clock.Now})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	wh := opdelta.NewWarehouse(db)
	schema := workload.PartsSchema()
	dimSchema := opdelta.NewSchema(
		opdelta.Column{Name: "qty_key", Type: opdelta.TypeInt64, NotNull: true},
		opdelta.Column{Name: "price_band", Type: opdelta.TypeString},
	)
	must := func(err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
	}
	must(wh.RegisterReplica("parts", schema, "part_id", "last_modified"))
	must(wh.RegisterReplica("qty_dim", dimSchema, "qty_key", ""))
	for k := 0; k < dims; k++ {
		_, err := db.Exec(nil, fmt.Sprintf("INSERT INTO qty_dim VALUES (%d, 'band-%02d')", k, k/50))
		must(err)
	}
	_, err = wh.RegisterView(opdelta.ViewDef{
		Name: "slim_parts", Source: "parts", Project: []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}, schema, nil)
	must(err)
	_, err = wh.RegisterView(opdelta.ViewDef{
		Name: "parts_priced", Source: "parts",
		Project:  []string{"part_id", "status", "qty", "qty_key", "price_band"},
		Join:     &iopdelta.JoinSpec{Table: "qty_dim", LeftCol: "qty", RightCol: "qty_key"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}, schema, dimSchema)
	must(err)
	_, err = wh.RegisterAggView(opdelta.AggViewDef{
		Name: "parts_by_status", Source: "parts", GroupBy: "status",
		Aggregates: []opdelta.AggSpec{{Fn: opdelta.AggCount}, {Fn: opdelta.AggSum, Col: "qty"}},
	}, schema)
	must(err)
	must(opdelta.CreateSecondaryIndex(db, "parts_priced", "part_id"))
	// The views fill through their own maintenance.
	for first := 0; first < rows; first += 50 {
		_, err := db.Exec(nil, workload.InsertStmt(int64(first), 50))
		must(err)
	}
	must(db.WAL().Flush())
	startLSN := db.WAL().NextLSN()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := int64((i * 200) % (rows - 200))
		if _, err := db.Exec(nil, workload.UpdateStmt(first, 200, marker(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	must(db.WAL().Flush())
	recs, err := wal.ReadAll(db.WALDir())
	must(err)
	views := 0
	for _, r := range recs {
		if r.LSN >= startLSN && (r.Table == "slim_parts" || r.Table == "parts_priced" || r.Table == "parts_by_status") {
			views++
		}
	}
	b.ReportMetric(float64(views)/float64(b.N), "view-wal-appends/op")
}

// BenchmarkPointApply replays 256 single-row source transactions per
// iteration — the point workload's mix, 30 % INSERT, 40 % UPDATE and
// 30 % DELETE, as the source captures them — through the op integrator
// at 4 workers, with the high-water log, onto a 12 000-row replica that
// maintains the projection slim_parts. Consecutive point transactions
// share warehouse transactions of up to 64 keys, so an iteration is 4
// commits; commits/op reports them. CI gates its allocs/op, a count.
func BenchmarkPointApply(b *testing.B) {
	const rows, perIter = 12_000, 256
	clock := workload.NewClock()
	db, err := opdelta.Open(b.TempDir(), opdelta.Options{Now: clock.Now})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	wh := opdelta.NewWarehouse(db)
	schema := workload.PartsSchema()
	must := func(err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
	}
	must(wh.RegisterReplica("parts", schema, "part_id", "last_modified"))
	_, err = wh.RegisterView(opdelta.ViewDef{
		Name: "slim_parts", Source: "parts", Project: []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}, schema, nil)
	must(err)
	for first := 0; first < rows; first += 50 {
		_, err := db.Exec(nil, workload.InsertStmt(int64(first), 50))
		must(err)
	}
	applied, err := warehouse.EnsureAppliedLog(wh)
	must(err)
	in := &opdelta.OpDeltaIntegrator{W: wh, Workers: 4, Applied: applied}

	// Keys 0..rows-1 start live and rows..2*rows-1 absent; an INSERT
	// takes an absent key, a DELETE a live one, an UPDATE any live one.
	rng := rand.New(rand.NewSource(1))
	live, dead := make([]int64, rows), make([]int64, rows)
	for i := range live {
		live[i], dead[i] = int64(i), int64(rows+i)
	}
	take := func(s *[]int64) int64 {
		i := rng.Intn(len(*s))
		k := (*s)[i]
		(*s)[i] = (*s)[len(*s)-1]
		*s = (*s)[:len(*s)-1]
		return k
	}
	statuses := []string{"new", "active", "hold", "revised", "retired"}
	batches := make([][]*opdelta.Op, b.N)
	seq := uint64(0)
	for i := range batches {
		for j := 0; j < perIter; j++ {
			seq++
			op := &opdelta.Op{Seq: seq, Txn: seq, Table: "parts"}
			switch r := rng.Intn(10); {
			case r < 3:
				k := take(&dead)
				live = append(live, k)
				op.Kind, op.Stmt = iopdelta.OpInsert, workload.SingleInsertStmt(k)
			case r < 7:
				k := live[rng.Intn(len(live))]
				op.Kind, op.Stmt = iopdelta.OpUpdate, workload.UpdateStmt(k, 1, statuses[rng.Intn(len(statuses))])
			default:
				k := take(&live)
				dead = append(dead, k)
				op.Kind, op.Stmt = iopdelta.OpDelete, workload.DeleteStmt(k, 1)
			}
			batches[i] = append(batches[i], op)
		}
	}
	commits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := in.Apply(batches[i])
		if err != nil || stats.Txns != perIter {
			b.Fatalf("Apply = %+v, %v", stats, err)
		}
		commits += stats.Commits
	}
	b.StopTimer()
	b.ReportMetric(float64(commits)/float64(b.N), "commits/op")
}

// BenchmarkScanQuery measures a full-scan predicate query over 20k rows.
func BenchmarkScanQuery(b *testing.B) {
	db := newBenchSource(b, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Query(nil, workload.ScanStatement()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotDiffSortMerge measures the exact snapshot diff over
// 20k-row snapshots.
func BenchmarkSnapshotDiffSortMerge(b *testing.B) {
	db := newBenchSource(b, 20_000)
	dir := b.TempDir()
	oldSnap := dir + "/old.snap"
	newSnap := dir + "/new.snap"
	if _, err := opdelta.WriteSnapshot(db, "parts", oldSnap); err != nil {
		b.Fatal(err)
	}
	db.Exec(nil, workload.UpdateStmt(0, 1000, "diffme"))
	if _, err := opdelta.WriteSnapshot(db, "parts", newSnap); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Table("parts")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := opdelta.DiffSortMerge(oldSnap, newSnap, tbl.Schema, 0, func(opdelta.SnapshotChange) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != 1000 {
			b.Fatalf("diff = %d changes", n)
		}
	}
}

// BenchmarkSnapshotDiffWindow measures the bounded-memory window diff
// on the same snapshots.
func BenchmarkSnapshotDiffWindow(b *testing.B) {
	db := newBenchSource(b, 20_000)
	dir := b.TempDir()
	oldSnap := dir + "/old.snap"
	newSnap := dir + "/new.snap"
	opdelta.WriteSnapshot(db, "parts", oldSnap)
	db.Exec(nil, workload.UpdateStmt(0, 1000, "diffme"))
	opdelta.WriteSnapshot(db, "parts", newSnap)
	tbl, _ := db.Table("parts")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := opdelta.DiffWindow(oldSnap, newSnap, tbl.Schema, 0, 256, func(opdelta.SnapshotChange) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
