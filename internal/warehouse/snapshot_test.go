package warehouse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/opdelta"
	"opdelta/internal/wal"
)

// renderRows formats query rows as a sorted, layout-independent image.
func renderRows(rows []catalog.Tuple) string {
	lines := make([]string, 0, len(rows))
	for _, tup := range rows {
		parts := make([]string, len(tup))
		for i, v := range tup {
			parts[i] = v.SQLLiteral()
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// highWater reads the applied log's high-water seq inside tx.
func highWater(db *engine.DB, tx *engine.Tx) (uint64, error) {
	_, rows, err := db.Query(tx, "SELECT a_seq FROM "+AppliedLogName+" WHERE a_id = 0")
	if err != nil {
		return 0, err
	}
	if len(rows) != 1 {
		return 0, fmt.Errorf("%s: %d high-water rows", AppliedLogName, len(rows))
	}
	return uint64(rows[0][0].Int()), nil
}

// TestSnapshotReadsDuringParallelApply races lock-free snapshot readers
// against the parallel integrator and pins three properties:
//   - every concurrent snapshot equals the source at the seq it reads
//     from the applied log's high-water row: its tables are what the
//     serial reference (refSerialApply) holds after the last source
//     transaction at or below that seq — strong consistency, not just
//     agreement with itself;
//   - every concurrent snapshot renders identically to a quiesced AS OF
//     read at the same commit LSN (the concurrent heap races changed
//     nothing);
//   - a snapshot at the final horizon is byte-identical to the locked
//     scan, and readers never enter the lock manager.
func TestSnapshotReadsDuringParallelApply(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// With the aggregate view every group is ordered after the one
			// before; without it key-disjoint groups run side by side.
			for _, withAgg := range []bool{false, true} {
				name := "replica+sp"
				if withAgg {
					name = "replica+sp+agg"
				}
				t.Run(name, func(t *testing.T) { testSnapshotReadsDuringParallelApply(t, seed, withAgg) })
			}
		})
	}
}

func testSnapshotReadsDuringParallelApply(t *testing.T, seed int64, withAgg bool) {
	ops := randomOpWorkload(t, seed, 40)
	w := equivWarehouseViews(t, wal.SyncFlush, false, withAgg)
	db := w.DB
	al, err := EnsureAppliedLog(w)
	if err != nil {
		t.Fatal(err)
	}
	snapshotTables := []string{"parts", "v_low"}
	if withAgg {
		snapshotTables = append(snapshotTables, "agg_status")
	}

	// The source state after each source transaction, keyed by its
	// last seq, from the serial reference.
	type state struct {
		seq    uint64
		images map[string]string
	}
	ref := equivWarehouseViews(t, wal.SyncFlush, false, withAgg)
	capture := func(seq uint64) state {
		s := state{seq, make(map[string]string)}
		for _, name := range snapshotTables {
			_, rows, err := ref.DB.Query(nil, "SELECT * FROM "+name)
			if err != nil {
				t.Fatal(err)
			}
			s.images[name] = renderRows(rows)
		}
		return s
	}
	states := []state{capture(0)}
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && ops[j].Txn == ops[i].Txn {
			j++
		}
		if _, err := refSerialApply(ref, ops[i:j]); err != nil {
			t.Fatal(err)
		}
		states = append(states, capture(ops[j-1].Seq))
		i = j
	}

	type obs struct {
		readLSN uint64
		high    uint64
		images  map[string]string
	}
	var obsMu sync.Mutex
	var seen []obs
	var readerErr error
	stop := make(chan struct{})
	var wg sync.WaitGroup

	snapScan := func() (obs, error) {
		stx := db.BeginSnapshot()
		defer stx.Commit()
		o := obs{readLSN: stx.ReadLSN(), images: make(map[string]string)}
		var err error
		if o.high, err = highWater(db, stx); err != nil {
			return o, err
		}
		for _, name := range snapshotTables {
			_, rows, err := db.Query(stx, "SELECT * FROM "+name)
			if err != nil {
				return o, err
			}
			o.images[name] = renderRows(rows)
		}
		return o, nil
	}

	lockGrants := func() uint64 {
		g := db.LockStats().Grants
		for _, ls := range db.LockTableStats() {
			g += ls.Acquires
		}
		return g
	}

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				o, err := snapScan()
				obsMu.Lock()
				if err != nil {
					if readerErr == nil {
						readerErr = err
					}
					obsMu.Unlock()
					return
				}
				seen = append(seen, o)
				obsMu.Unlock()
			}
		}()
	}
	if _, err := (&ParallelIntegrator{W: w, Workers: 4, Applied: al}).Apply(ops); err != nil {
		t.Fatalf("parallel apply: %v", err)
	}
	close(stop)
	wg.Wait()
	if readerErr != nil {
		t.Fatalf("snapshot reader: %v", readerErr)
	}
	if len(seen) == 0 {
		// The apply outran the readers; take one quiesced
		// observation so the checks below still bite.
		o, err := snapScan()
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, o)
	}

	for _, o := range seen {
		// Property 1: the snapshot is the source state at its
		// high-water seq.
		k, _ := slices.BinarySearchFunc(states, o.high, func(s state, seq uint64) int { return cmp.Compare(s.seq, seq) })
		if k == len(states) || states[k].seq != o.high {
			t.Fatalf("high-water seq %d ends no source transaction", o.high)
		}
		for _, name := range snapshotTables {
			if got, want := o.images[name], states[k].images[name]; got != want {
				t.Fatalf("snapshot at high-water seq %d: %s differs from the source state:\n--- snapshot ---\n%s\n--- source ---\n%s",
					o.high, name, got, want)
			}
		}

		// Property 2: concurrent snapshot == quiesced AS OF at the
		// same LSN. The version population here stays far below the
		// GC threshold, so every observed horizon is still readable.
		if o.readLSN == 0 {
			// Pinned before any commit: the tables must render
			// empty (AS OF requires a positive LSN).
			if o.images["parts"] != "" {
				t.Fatalf("snapshot at LSN 0 saw rows:\n%s", o.images["parts"])
			}
			continue
		}
		for _, name := range snapshotTables {
			_, rows, err := db.Query(nil, fmt.Sprintf(`SELECT * FROM %s AS OF %d`, name, o.readLSN))
			if err != nil {
				t.Fatalf("AS OF %d: %v", o.readLSN, err)
			}
			if got := renderRows(rows); got != o.images[name] {
				t.Fatalf("%s at LSN %d read concurrently differs from quiesced AS OF:\n--- concurrent ---\n%s\n--- quiesced ---\n%s",
					name, o.readLSN, o.images[name], got)
			}
		}
	}

	// Property 3: at the final horizon, snapshot == locked scan,
	// and the snapshot path grants no locks.
	before := lockGrants()
	final, err := snapScan()
	if err != nil {
		t.Fatal(err)
	}
	if after := lockGrants(); after != before {
		t.Fatalf("snapshot scan acquired %d locks, want 0", after-before)
	}
	for _, name := range snapshotTables {
		_, lockedRows, err := db.Query(nil, "SELECT * FROM "+name)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRows(lockedRows); got != final.images[name] {
			t.Fatalf("final snapshot of %s != locked scan:\n--- snapshot ---\n%s\n--- locked ---\n%s", name, final.images[name], got)
		}
	}
}

// TestSnapshotNeverSeesALaterTransactionAlone: two key-disjoint source
// transactions, the first held inside its statement hook until a
// snapshot is taken. The second runs meanwhile, but it commits only
// after the first, so the snapshot sees neither — never the second
// without the first — and its high-water row says so.
//
// The two transactions update rows inserted beforehand, each through a
// two-key range (keys 0 and 3 are absent): range statements, so the two
// never join one run. A snapshot reads the keys whose row an update has reached.
func TestSnapshotNeverSeesALaterTransactionAlone(t *testing.T) {
	src := openDB(t)
	if _, err := src.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	w := replicaWarehouse(t, partsSchema(t, src))
	al, err := EnsureAppliedLog(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.DB.Exec(nil, "INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 0), (2, 'b', 0)"); err != nil {
		t.Fatal(err)
	}
	held, ranSecond, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	if err := w.DB.CreateStatementHook("parts", engine.StatementHook{Name: "hold",
		Fn: func(_ *engine.Tx, d *engine.StatementDelta) error {
			switch d.After[0][0].Int() {
			case 1:
				close(held)
				<-release
			case 2:
				close(ranSecond)
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	ops := []*opdelta.Op{
		{Seq: 1, Txn: 1, Kind: opdelta.OpUpdate, Table: "parts", Stmt: "UPDATE parts SET qty = 1 WHERE part_id BETWEEN 0 AND 1"},
		{Seq: 2, Txn: 2, Kind: opdelta.OpUpdate, Table: "parts", Stmt: "UPDATE parts SET qty = 2 WHERE part_id BETWEEN 2 AND 3"},
	}
	done := make(chan error, 1)
	go func() {
		_, err := (&ParallelIntegrator{W: w, Workers: 2, Applied: al}).Apply(ops)
		done <- err
	}()
	// look fails the test on a snapshot holding the second transaction
	// alone, and returns the keys a snapshot holds and its high-water seq.
	look := func() (keys string, high uint64, err error) {
		stx := w.DB.BeginSnapshot()
		defer stx.Commit()
		_, rows, err := w.DB.Query(stx, "SELECT part_id FROM parts WHERE qty > 0")
		if err != nil {
			t.Fatal(err)
		}
		var ks []int64
		for _, row := range rows {
			ks = append(ks, row[0].Int())
		}
		slices.Sort(ks)
		if keys = fmt.Sprint(ks); keys == "[2]" {
			t.Fatal("a snapshot sees the second source transaction without the first")
		}
		high, err = highWater(w.DB, stx)
		return keys, high, err
	}
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	for _, ch := range []chan struct{}{held, ranSecond} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("the two source transactions did not run side by side")
		}
	}
	// The second transaction has run its statement; give it time to
	// commit, were it allowed to.
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		look()
	}
	if keys, high, err := look(); keys != "[]" || high != 0 || err != nil {
		t.Fatalf("while the first transaction runs, a snapshot sees keys %s at high-water seq %d (%v); want [] at 0", keys, high, err)
	}
	unblock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if keys, high, err := look(); keys != "[1 2]" || high != 2 || err != nil {
		t.Fatalf("after the apply, a snapshot sees keys %s at high-water seq %d (%v); want [1 2] at 2", keys, high, err)
	}
}
