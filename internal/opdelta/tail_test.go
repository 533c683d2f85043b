package opdelta

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
)

// readFullScan is TableLog.Read as it was before the committed-op tail:
// scan the whole op-log table, decode every op past the cursor. It is
// the reference the tail and the indexed cold path are checked against.
func (l *TableLog) readFullScan(fromSeq uint64) ([]*Op, error) {
	parts := map[uint64]map[int64][]byte{}
	err := l.DB.ScanTable(nil, TableLogName, func(row catalog.Tuple) error {
		seq, part := uint64(row[0].Int()), row[1].Int()
		if seq <= fromSeq || part == basePart {
			return nil
		}
		if parts[seq] == nil {
			parts[seq] = map[int64][]byte{}
		}
		parts[seq][part] = append([]byte(nil), row[2].BytesVal()...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Op
	for seq, p := range parts {
		var enc []byte
		for part := int64(0); part < int64(len(p)); part++ {
			chunk, ok := p[part]
			if !ok {
				return nil, fmt.Errorf("op %d lacks part %d", seq, part)
			}
			enc = append(enc, chunk...)
		}
		op, n, err := DecodeOpResolve(enc, l.DB.Schema)
		if err != nil {
			return nil, err
		}
		if op.Seq != seq || n != len(enc) {
			return nil, fmt.Errorf("rows of seq %d hold op %d and %d stray bytes", seq, op.Seq, len(enc)-n)
		}
		out = append(out, op)
	}
	sortOps(out)
	return out, nil
}

// sameOps fails the test unless got and want hold equal ops in order.
func sameOps(t *testing.T, ctx string, got, want []*Op) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ops %v, want %d %v", ctx, len(got), seqsOf(got), len(want), seqsOf(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Seq != w.Seq || g.Txn != w.Txn || g.Kind != w.Kind || g.Table != w.Table ||
			g.Stmt != w.Stmt || g.Hybrid != w.Hybrid || !g.Time.Equal(w.Time) || len(g.Before) != len(w.Before) {
			t.Fatalf("%s: op %d = %+v, want %+v", ctx, i, g, w)
		}
		for j := range g.Before {
			if !g.Before[j].Equal(w.Before[j]) {
				t.Fatalf("%s: op seq %d before image %d differs", ctx, g.Seq, j)
			}
		}
	}
}

func seqsOf(ops []*Op) []uint64 {
	out := make([]uint64, len(ops))
	for i, op := range ops {
		out[i] = op.Seq
	}
	return out
}

// shrinkTail forces the tail down to at most n ops, as its budget would
// under a deeper backlog.
func shrinkTail(t *opTail, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evictLocked(n, tailMaxBytes)
}

func testOp(rng *rand.Rand, i int) *Op {
	kinds := []OpKind{OpInsert, OpUpdate, OpDelete}
	return &Op{
		Txn:   uint64(1000 + i),
		Kind:  kinds[rng.Intn(len(kinds))],
		Table: "parts",
		Stmt:  fmt.Sprintf("UPDATE parts SET qty = %d WHERE part_id = %d", rng.Intn(100), i),
		Time:  time.Date(2000, 3, 1, 0, 0, i, 0, time.UTC),
	}
}

// TestTableLogReadMatchesFullScan drives a TableLog through random
// appends (plain ops, and hybrid ops whose before images spread the
// encoding over several rows), aborted transactions, truncations — including one
// past the head —, reopens and forced tail evictions, and checks after
// every few steps that Read(k) equals the full-scan reference for every
// cursor k.
func TestTableLogReadMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			clk := newClock()
			open := func() (*engine.DB, *TableLog) {
				db, err := engine.Open(dir, engine.Options{Now: clk.Now})
				if err != nil {
					t.Fatal(err)
				}
				log, err := NewTableLog(db)
				if err != nil {
					t.Fatal(err)
				}
				return db, log
			}
			db, log := open()
			defer func() { db.Close() }()
			createParts(t, db)
			bigImage := func() catalog.Tuple {
				return catalog.Tuple{
					catalog.NewInt(rng.Int63n(1000)),
					catalog.NewString(strings.Repeat("x", 2000+rng.Intn(3000))),
					catalog.NewNull(catalog.TypeInt64),
					catalog.NewNull(catalog.TypeTime),
				}
			}
			check := func(step int) {
				t.Helper()
				for k := uint64(0); k <= log.Seq()+1; k++ {
					want, err := log.readFullScan(k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := log.Read(k)
					if err != nil {
						t.Fatal(err)
					}
					sameOps(t, fmt.Sprintf("step %d Read(%d)", step, k), got, want)
				}
			}
			for step := 0; step < 60; step++ {
				switch r := rng.Intn(20); {
				case r < 9: // one committed transaction of 1-3 ops
					tx := db.Begin()
					for i, n := 0, 1+rng.Intn(3); i < n; i++ {
						op := testOp(rng, step)
						if rng.Intn(4) == 0 { // 4-20 KB of before images: several rows
							op.Kind, op.Hybrid = OpDelete, true
							for j, m := 0, 2+rng.Intn(3); j < m; j++ {
								op.Before = append(op.Before, bigImage())
							}
						}
						if err := log.Append(tx, op); err != nil {
							t.Fatal(err)
						}
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				case r < 11: // autocommitted append
					if err := log.Append(nil, testOp(rng, step)); err != nil {
						t.Fatal(err)
					}
				case r < 14: // aborted transaction: its seqs become gaps
					tx := db.Begin()
					for i, n := 0, 1+rng.Intn(2); i < n; i++ {
						if err := log.Append(tx, testOp(rng, step)); err != nil {
							t.Fatal(err)
						}
					}
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
				case r < 16: // truncate somewhere at or below the head
					if seq := log.Seq(); seq > 0 {
						if err := log.Truncate(1 + uint64(rng.Int63n(int64(seq)))); err != nil {
							t.Fatal(err)
						}
					}
				case r < 17: // truncate past the head: clears the log, boundary = head
					seq := log.Seq()
					if err := log.Truncate(seq + 2); err != nil {
						t.Fatal(err)
					}
					if log.Base() != seq {
						t.Fatalf("step %d: Truncate past head %d left base %d", step, seq, log.Base())
					}
				case r < 19: // evict part or all of the tail
					shrinkTail(&log.tail, rng.Intn(4))
				default: // restart: the tail starts empty, everything is cold
					base := log.Base()
					_, committed := log.Horizon()
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					db, log = open()
					// Seqs of a trailing aborted transaction may be issued
					// again; committed ones and the boundary may not.
					if log.Base() != base || log.Seq() < max(base, committed) {
						t.Fatalf("step %d: reopen recovered base %d seq %d, had base %d, highest committed %d",
							step, log.Base(), log.Seq(), base, committed)
					}
				}
				if step%3 == 2 {
					check(step)
				}
			}
			check(60)
		})
	}
}

// TestFileLogReadMatchesFile is the same property for FileLog, whose
// reference is a decode of the whole file: transactions stay open
// across each other and commit out of seq order, some abort, the log is
// reopened and the tail evicted at random.
func TestFileLogReadMatchesFile(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := openDB(t)
		path := filepath.Join(t.TempDir(), "ops.log")
		log, err := NewFileLog(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		var open []*engine.Tx
		check := func(step int) {
			t.Helper()
			resolved, _ := log.Horizon()
			for k := uint64(0); k <= log.Seq()+1; k++ {
				want, err := log.readFile(k, resolved)
				if err != nil {
					t.Fatal(err)
				}
				got, err := log.Read(k)
				if err != nil {
					t.Fatal(err)
				}
				sameOps(t, fmt.Sprintf("seed %d step %d Read(%d)", seed, step, k), got, want)
			}
		}
		for step := 0; step < 80; step++ {
			switch r := rng.Intn(20); {
			case r < 8: // append to a new or an already open transaction
				if len(open) == 0 || rng.Intn(2) == 0 {
					open = append(open, db.Begin())
				}
				if err := log.Append(open[rng.Intn(len(open))], testOp(rng, step)); err != nil {
					t.Fatal(err)
				}
			case r < 15: // finish a random open transaction
				if len(open) == 0 {
					continue
				}
				i := rng.Intn(len(open))
				tx := open[i]
				open = append(open[:i], open[i+1:]...)
				if rng.Intn(4) == 0 {
					err = tx.Abort()
				} else {
					err = tx.Commit()
				}
				if err != nil {
					t.Fatal(err)
				}
			case r < 17:
				if err := log.Append(nil, testOp(rng, step)); err != nil {
					t.Fatal(err)
				}
			case r < 19:
				shrinkTail(&log.tail, rng.Intn(4))
			default: // reopen, with nothing in flight
				for _, tx := range open {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				open = nil
				if err := log.Close(); err != nil {
					t.Fatal(err)
				}
				if log, err = NewFileLog(path, nil); err != nil {
					t.Fatal(err)
				}
			}
			check(step)
		}
		log.Close()
	}
}

// TestReadNeverPassesResolvedHorizon: two capturing transactions commit
// in the opposite order of their seqs. A reader polling between the two
// commits must not be handed the higher seq — it would move its cursor
// past the lower one and never ship it.
func TestReadNeverPassesResolvedHorizon(t *testing.T) {
	poll := func(t *testing.T, log Log, cursor *uint64) []uint64 {
		t.Helper()
		ops, err := log.Read(*cursor)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Seq <= *cursor {
				t.Fatalf("Read(%d) returned seq %d", *cursor, op.Seq)
			}
			*cursor = op.Seq
		}
		return seqsOf(ops)
	}

	t.Run("FileLog", func(t *testing.T) {
		db := openDB(t)
		log, err := NewFileLog(filepath.Join(t.TempDir(), "ops.log"), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 3; i++ {
			if err := log.Append(nil, testOp(rng, i)); err != nil {
				t.Fatal(err)
			}
		}
		a, b := db.Begin(), db.Begin()
		if err := log.Append(a, testOp(rng, 4)); err != nil { // seq 4
			t.Fatal(err)
		}
		if err := log.Append(b, testOp(rng, 5)); err != nil { // seq 5
			t.Fatal(err)
		}
		var cursor uint64
		if got := poll(t, log, &cursor); fmt.Sprint(got) != "[1 2 3]" {
			t.Fatalf("before either commit: %v", got)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := poll(t, log, &cursor); len(got) != 0 {
			t.Fatalf("seq 4 still in flight, reader was handed %v", got)
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := poll(t, log, &cursor); fmt.Sprint(got) != "[4 5]" {
			t.Fatalf("after both commits: %v, want [4 5]", got)
		}
	})

	// A TableLog transaction holds the log table's lock from its first
	// Append to its commit, so the reversal needs the lock holder to be
	// the late seq's owner: B appends seq 3 and holds the lock, A takes
	// seq 4 and queues for the lock, B appends seq 5 and commits.
	t.Run("TableLog", func(t *testing.T) {
		db := openDB(t)
		log, err := NewTableLog(db)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2; i++ {
			if err := log.Append(nil, testOp(rng, i)); err != nil {
				t.Fatal(err)
			}
		}
		b := db.Begin()
		if err := log.Append(b, testOp(rng, 3)); err != nil { // seq 3
			t.Fatal(err)
		}
		op4, op5 := testOp(rng, 4), testOp(rng, 5)
		aDone := make(chan error, 1)
		go func() {
			a := db.Begin()
			if err := log.Append(a, op4); err != nil { // seq 4, waits for b
				a.Abort()
				aDone <- err
				return
			}
			aDone <- a.Commit()
		}()
		for log.Seq() < 4 {
			time.Sleep(100 * time.Microsecond)
		}
		if err := log.Append(b, op5); err != nil { // seq 5
			t.Fatal(err)
		}
		var cursor uint64
		if got := poll(t, log, &cursor); fmt.Sprint(got) != "[1 2]" {
			t.Fatalf("before either commit: %v", got)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		// Seq 4 is unresolved until a commits, which may happen any time
		// now: whatever a poll returns must be a gap-free continuation.
		var got []uint64
		deadline := time.Now().Add(10 * time.Second)
		for len(got) < 3 && time.Now().Before(deadline) {
			got = append(got, poll(t, log, &cursor)...)
			if len(got) > 0 && got[len(got)-1] == 5 && len(got) < 3 {
				t.Fatalf("reader was handed %v: seq 5 before seq 4", got)
			}
		}
		if err := <-aDone; err != nil {
			t.Fatal(err)
		}
		got = append(got, poll(t, log, &cursor)...)
		if fmt.Sprint(got) != "[3 4 5]" {
			t.Fatalf("delivered %v, want [3 4 5]", got)
		}
		want, err := log.readFullScan(0)
		if err != nil {
			t.Fatal(err)
		}
		all, err := log.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		sameOps(t, "Read(0)", all, want)
	})
}

// TestAbortedSeqsLeaveGaps: an aborted transaction's seqs are never
// reused and never delivered; Read steps over them without stalling.
func TestAbortedSeqsLeaveGaps(t *testing.T) {
	db := openDB(t)
	log, err := NewTableLog(db)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	appendTx := func(n int, commit bool) {
		t.Helper()
		tx := db.Begin()
		for i := 0; i < n; i++ {
			if err := log.Append(tx, testOp(rng, i)); err != nil {
				t.Fatal(err)
			}
		}
		if commit {
			err = tx.Commit()
		} else {
			err = tx.Abort()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	appendTx(2, true)  // 1 2
	appendTx(3, false) // 3 4 5 aborted
	appendTx(1, true)  // 6
	appendTx(1, false) // 7 aborted
	if resolved, maxCommitted := log.Horizon(); resolved != 7 || maxCommitted != 6 {
		t.Fatalf("horizon = (%d, %d), want (7, 6)", resolved, maxCommitted)
	}
	for from, want := range map[uint64]string{0: "[1 2 6]", 2: "[6]", 4: "[6]", 6: "[]", 7: "[]"} {
		ops, err := log.Read(from)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(seqsOf(ops)); got != want {
			t.Fatalf("Read(%d) = %s, want %s", from, got, want)
		}
	}
	appendTx(1, true) // 8
	if ops, _ := log.Read(6); fmt.Sprint(seqsOf(ops)) != "[8]" {
		t.Fatalf("Read(6) after the gap = %v", seqsOf(ops))
	}
}

// TestTailReadDoesNotAllocate: a reader at or above the tail's floor
// costs a mutex, a binary search and a sub-slice.
func TestTailReadDoesNotAllocate(t *testing.T) {
	db := openDB(t)
	log, err := NewTableLog(db)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tx := db.Begin()
	for i := 0; i < 500; i++ {
		if err := log.Append(tx, testOp(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var n int
	for _, from := range []uint64{0, 250, 436, 500} {
		allocs := testing.AllocsPerRun(100, func() {
			ops, err := log.Read(from)
			if err != nil {
				panic(err)
			}
			n = len(ops)
		})
		if allocs != 0 || n != 500-int(from) {
			t.Fatalf("Read(%d): %d ops, %.0f allocs/run, want %d ops and 0", from, n, allocs, 500-from)
		}
	}
}

// TestTailReadResultSurvivesAppendsAndEviction: a slice a reader holds
// is not disturbed by later publishes, evictions or truncation, and
// appending to it does not write into the tail.
func TestTailReadResultSurvivesAppendsAndEviction(t *testing.T) {
	db := openDB(t)
	log, err := NewTableLog(db)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if err := log.Append(nil, testOp(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	held, err := log.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(seqsOf(held))
	_ = append(held, &Op{Seq: 999}) // must copy, not land in the tail's array
	for i := 10; i < 20; i++ {
		if err := log.Append(nil, testOp(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	shrinkTail(&log.tail, 2)
	if err := log.Truncate(15); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(seqsOf(held)); got != before {
		t.Fatalf("held slice changed from %s to %s", before, got)
	}
	ops, err := log.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(seqsOf(ops)); got != "[16 17 18 19 20]" {
		t.Fatalf("after evict + truncate: %s", got)
	}
}
