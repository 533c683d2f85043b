package warehouse

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
	"opdelta/internal/wal"
)

// pointOps returns n single-row source transactions in the benchmark's
// point mix — 30 % INSERT, 40 % UPDATE, 30 % DELETE, dealt in shuffled
// hands of ten — over the keys 0..keys-1, of which 0..live-1 start
// live. The key space is small, so keys repeat inside every run.
func pointOps(seed int64, n, keys, live int) []*opdelta.Op {
	rng := rand.New(rand.NewSource(seed))
	isLive := make([]bool, keys)
	for k := 0; k < live; k++ {
		isLive[k] = true
	}
	pick := func(want bool) int {
		k := rng.Intn(keys)
		for isLive[k] != want {
			k = (k + 1) % keys
		}
		return k
	}
	var hand []byte
	var ops []*opdelta.Op
	for i := 1; i <= n; i++ {
		if len(hand) == 0 {
			hand = []byte("IIIUUUUDDD")
			rng.Shuffle(len(hand), func(a, b int) { hand[a], hand[b] = hand[b], hand[a] })
		}
		kind := hand[0]
		hand = hand[1:]
		op := &opdelta.Op{Seq: uint64(i), Txn: uint64(i), Table: "parts"}
		switch {
		case kind == 'I' && live < keys || live == 0:
			k := pick(false)
			isLive[k] = true
			live++
			op.Kind = opdelta.OpInsert
			op.Stmt = fmt.Sprintf("INSERT INTO parts (part_id, status, qty) VALUES (%d, 's%d', %d)", k, rng.Intn(5), rng.Intn(1000))
		case kind == 'D':
			k := pick(true)
			isLive[k] = false
			live--
			op.Kind = opdelta.OpDelete
			op.Stmt = fmt.Sprintf("DELETE FROM parts WHERE part_id BETWEEN %d AND %d", k, k)
		default:
			k := pick(true)
			op.Kind = opdelta.OpUpdate
			op.Stmt = fmt.Sprintf("UPDATE parts SET status = 's%d', qty = %d WHERE part_id BETWEEN %d AND %d",
				rng.Intn(5), rng.Intn(1000), k, k)
		}
		ops = append(ops, op)
	}
	return ops
}

// seedParts inserts parts 0..n-1.
func seedParts(t *testing.T, w *Warehouse, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		if _, err := w.DB.Exec(nil, fmt.Sprintf("INSERT INTO parts (part_id, status, qty) VALUES (%d, 's%d', %d)", k, k%5, k*7)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPointRunsMatchSerialReplay: 256 single-row source transactions,
// keys repeating, on a replica with a key-retaining projection view
// commit in four warehouse transactions of 64 — and leave the replica,
// the view and the high-water seq exactly as serial replay of one
// warehouse transaction per source transaction does.
func TestPointRunsMatchSerialReplay(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ops := pointOps(seed, 256, 48, 32)
		ws := equivWarehouseViews(t, wal.SyncFlush, false, false)
		seedParts(t, ws, 32)
		if _, err := refSerialApply(ws, ops); err != nil {
			t.Fatalf("seed %d: serial apply: %v", seed, err)
		}
		wp := equivWarehouseViews(t, wal.SyncFlush, false, false)
		seedParts(t, wp, 32)
		al, err := EnsureAppliedLog(wp)
		if err != nil {
			t.Fatal(err)
		}
		in := &ParallelIntegrator{W: wp, Workers: 4, Applied: al}
		stats, err := in.Apply(ops)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if stats.Txns != 256 || stats.Commits != 4 || stats.Records != 256 {
			t.Fatalf("seed %d: applied %d source transactions (%d ops) in %d commits; want 256 in 4",
				seed, stats.Txns, stats.Records, stats.Commits)
		}
		if m := in.metrics(); m.txns.Value() != 256 || m.commits.Value() != 4 {
			t.Fatalf("seed %d: counters read %d transactions and %d commits; want 256 and 4",
				seed, m.txns.Value(), m.commits.Value())
		}
		for _, name := range []string{"parts", "v_low"} {
			if a, b := tableImage(t, ws.DB, name), tableImage(t, wp.DB, name); !slices.Equal(a, b) {
				t.Fatalf("seed %d: %s differs:\n serial %v\n runs   %v", seed, name, a, b)
			}
		}
		if high, err := al.MaxSeq(); err != nil || high != 256 {
			t.Fatalf("seed %d: high-water seq %d, %v; want 256", seed, high, err)
		}
	}
}

// TestRunBoundaries: a run ends at a range statement, at an op on a
// table with an aggregate view (whose plan locks the view whole), and
// before the key that would make it 65. A run's plan is its members'
// keys, joined where consecutive.
func TestRunBoundaries(t *testing.T) {
	w := equivWarehouseViews(t, wal.SyncFlush, false, false)
	if _, err := w.DB.Exec(nil, "CREATE TABLE stock (s_id BIGINT NOT NULL, bin VARCHAR, qty BIGINT) PRIMARY KEY (s_id)"); err != nil {
		t.Fatal(err)
	}
	st, err := w.DB.Table("stock")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RegisterReplica("stock", st.Schema, "s_id", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterAggView(AggViewDef{Name: "stock_by_bin", Source: "stock", GroupBy: "bin",
		Aggregates: []sqlmini.AggSpec{{Fn: sqlmini.AggCount}}}, st.Schema); err != nil {
		t.Fatal(err)
	}
	var ops []*opdelta.Op
	add := func(table, stmt string) {
		n := uint64(len(ops) + 1)
		ops = append(ops, &opdelta.Op{Seq: n, Txn: n, Table: table, Stmt: stmt})
	}
	add("parts", "INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 1)")
	add("parts", "UPDATE parts SET qty = 2 WHERE part_id = 1")
	add("parts", "UPDATE parts SET qty = 3 WHERE part_id BETWEEN 1 AND 2")
	add("parts", "INSERT INTO parts (part_id, status, qty) VALUES (2, 'b', 2)")
	add("stock", "INSERT INTO stock (s_id, bin, qty) VALUES (1, 'x', 1)")
	for k := 10; k < 75; k++ {
		add("parts", fmt.Sprintf("INSERT INTO parts (part_id, status, qty) VALUES (%d, 'c', %d)", k, k))
	}
	in := &ParallelIntegrator{W: w, Workers: 4}
	var units []*txnGroup
	for i := range ops {
		units = append(units, in.analyze(ops[i:i+1]))
	}
	var got []string
	for _, g := range runs(units) {
		got = append(got, fmt.Sprintf("%d-%d", g.ops[0].Seq, g.ops[len(g.ops)-1].Seq))
		if g.txns != len(g.ops) {
			t.Fatalf("group %v: %d source transactions, %d ops", got, g.txns, len(g.ops))
		}
	}
	// 1-2 a run; 3 a range; 4 alone, closed by 5 on the aggregated table;
	// 6-69 64 keys; 70 the 65th.
	if want := "[1-2 3-3 4-4 5-5 6-69 70-70]"; fmt.Sprint(got) != want {
		t.Fatalf("groups %v, want %s", got, want)
	}
	run := runs(units)[4]
	if p := fmt.Sprint(run.plan["parts"].Ranges, run.plan["v_low"].Ranges); p != "[[10, 73]] [[10, 73]]" {
		t.Fatalf("the 64-key run plans %s, want one range on parts and on v_low", p)
	}
	stats, err := in.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Txns != len(ops) || stats.Commits != 6 {
		t.Fatalf("applied %d source transactions in %d commits; want %d in 6", stats.Txns, stats.Commits, len(ops))
	}
}

// TestRunFailureCommitsThePrefix: an op that fails inside a run rolls
// the run back, and the retry one source transaction at a time commits
// exactly the prefix before it and names it. A failure that does not
// repeat costs the retry and nothing else: every op applies, the ones
// after the run included.
func TestRunFailureCommitsThePrefix(t *testing.T) {
	insert := func(seq, key int) *opdelta.Op {
		return &opdelta.Op{Seq: uint64(seq), Txn: uint64(seq), Kind: opdelta.OpInsert, Table: "parts",
			Stmt: fmt.Sprintf("INSERT INTO parts (part_id, status, qty) VALUES (%d, 's', %d)", key, key)}
	}
	keys := func(w *Warehouse) string {
		_, rows, err := w.DB.Query(nil, "SELECT part_id FROM parts")
		if err != nil {
			t.Fatal(err)
		}
		ks := make([]int64, len(rows))
		for i, row := range rows {
			ks[i] = row[0].Int()
		}
		slices.Sort(ks)
		return fmt.Sprint(ks)
	}
	replica := func(t *testing.T) *Warehouse {
		src := openDB(t)
		if _, err := src.Exec(nil, partsDDL); err != nil {
			t.Fatal(err)
		}
		return replicaWarehouse(t, partsSchema(t, src))
	}

	t.Run("error", func(t *testing.T) {
		w := replica(t)
		al, err := EnsureAppliedLog(w)
		if err != nil {
			t.Fatal(err)
		}
		var ops []*opdelta.Op
		for seq := 1; seq <= 10; seq++ {
			ops = append(ops, insert(seq, seq))
		}
		ops[5] = insert(6, 3) // a duplicate of op 3's key
		in := &ParallelIntegrator{W: w, Workers: 4, Applied: al}
		stats, err := in.Apply(ops)
		if err == nil || !strings.Contains(err.Error(), "op 6 ") {
			t.Fatalf("err = %v, want op 6's failure", err)
		}
		if stats.Txns != 5 || stats.Commits != 5 || keys(w) != "[1 2 3 4 5]" {
			t.Fatalf("committed %d source transactions in %d commits, keys %s; want the prefix 1-5", stats.Txns, stats.Commits, keys(w))
		}
		if high, err := al.MaxSeq(); err != nil || high != 5 {
			t.Fatalf("high-water seq %d, %v; want 5", high, err)
		}
	})

	t.Run("transient", func(t *testing.T) {
		w := replica(t)
		al, err := EnsureAppliedLog(w)
		if err != nil {
			t.Fatal(err)
		}
		var failures atomic.Int32
		if err := w.DB.CreateStatementHook("parts", engine.StatementHook{Name: "once",
			Fn: func(_ *engine.Tx, d *engine.StatementDelta) error {
				if d.Op == engine.TrigInsert && d.After[0][0].Int() == 7 && failures.Add(1) == 1 {
					return errors.New("transient failure")
				}
				return nil
			}}); err != nil {
			t.Fatal(err)
		}
		var ops []*opdelta.Op
		for seq := 1; seq <= 10; seq++ {
			ops = append(ops, insert(seq, seq))
		}
		ops = append(ops, &opdelta.Op{Seq: 11, Txn: 11, Kind: opdelta.OpUpdate, Table: "parts",
			Stmt: "UPDATE parts SET qty = 0 WHERE part_id BETWEEN 1 AND 10"})
		in := &ParallelIntegrator{W: w, Workers: 4, Applied: al}
		stats, err := in.Apply(ops)
		if err != nil {
			t.Fatalf("a failure that does not repeat ended the apply: %v", err)
		}
		if failures.Load() != 2 || stats.Txns != 11 || stats.Commits != 11 || keys(w) != "[1 2 3 4 5 6 7 8 9 10]" {
			t.Fatalf("after %d tries of key 7: %d source transactions in %d commits, keys %s; want 11 in 11 (the retry), keys 1-10",
				failures.Load(), stats.Txns, stats.Commits, keys(w))
		}
		if high, err := al.MaxSeq(); err != nil || high != 11 {
			t.Fatalf("high-water seq %d, %v; want 11", high, err)
		}
		if _, rows, err := w.DB.Query(nil, "SELECT part_id FROM parts WHERE qty <> 0"); err != nil || len(rows) != 0 {
			t.Fatalf("the range update after the run: %d rows left, %v", len(rows), err)
		}
	})
}

// walSyncFailFS fails the first fsync of a WAL segment once armed.
type walSyncFailFS struct {
	fault.FS
	armed atomic.Bool
}

type walSyncFailFile struct {
	fault.File
	fs *walSyncFailFS
}

func (s *walSyncFailFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".seg") {
		return f, err
	}
	return &walSyncFailFile{File: f, fs: s}, nil
}

func (f *walSyncFailFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		return &os.PathError{Op: "sync", Path: f.Name(), Err: fault.ErrInjected}
	}
	return f.File.Sync()
}

// TestRunCommitFailureIsNotRetried: a run's Commit that fails after its
// commit record is in the log — here the WAL's fsync — may have
// committed: its writes and its high-water row are visible. Apply then
// returns the error as it is and applies nothing again, so no
// increment lands twice and the high-water row names the run's last op;
// a redelivery skips the whole batch.
func TestRunCommitFailureIsNotRetried(t *testing.T) {
	fsys := &walSyncFailFS{FS: fault.OS}
	db, err := engine.Open(t.TempDir(), engine.Options{Now: fixedNow, WALSync: wal.SyncFull, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	w := New(db)
	if err := w.RegisterReplica("parts", partsSchema(t, db), "part_id", "last_modified"); err != nil {
		t.Fatal(err)
	}
	seedParts(t, w, 10)
	al, err := EnsureAppliedLog(w)
	if err != nil {
		t.Fatal(err)
	}
	var ops []*opdelta.Op
	for k := 0; k < 10; k++ {
		seq := uint64(k + 1)
		ops = append(ops, &opdelta.Op{Seq: seq, Txn: seq, Kind: opdelta.OpUpdate, Table: "parts",
			Stmt: fmt.Sprintf("UPDATE parts SET qty = qty + 1 WHERE part_id = %d", k)})
	}
	in := &ParallelIntegrator{W: w, Workers: 4, Applied: al}
	fsys.armed.Store(true)
	stats, err := in.Apply(ops)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want the injected fsync failure", err)
	}
	if fsys.armed.Load() || stats.Commits != 0 || stats.Txns != 0 {
		t.Fatalf("armed %v, %d source transactions in %d commits; want the one failed commit",
			fsys.armed.Load(), stats.Txns, stats.Commits)
	}
	_, rows, err := db.Query(nil, "SELECT part_id, qty FROM parts")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if k := row[0].Int(); row[1].Int() != k*7+1 {
			t.Fatalf("part %d: qty %d, want %d — its increment applied %d times", k, row[1].Int(), k*7+1, row[1].Int()-k*7)
		}
	}
	if high, err := al.MaxSeq(); err != nil || high != 10 {
		t.Fatalf("high-water seq %d, %v; want 10", high, err)
	}
	if stats, err := in.Apply(ops); err != nil || stats.Txns != 0 {
		t.Fatalf("redelivery applied %d source transactions, %v; want none", stats.Txns, err)
	}
}
