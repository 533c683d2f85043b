package warehouse

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"opdelta/internal/engine"
	"opdelta/internal/opdelta"
	"opdelta/internal/wal"
)

// TestAppliedLogExactlyOnce: with an AppliedLog, redelivering ops —
// exact replays and partially overlapping batches alike — leaves the
// warehouse byte-identical to applying the stream exactly once. This is
// the idempotence the wire protocol's at-least-once delivery rests on.
func TestAppliedLogExactlyOnce(t *testing.T) {
	ops := randomOpWorkload(t, 11, 30)
	if len(ops) < 9 {
		t.Fatalf("workload too small: %d ops", len(ops))
	}
	tables := []string{"parts", "v_low", "agg_status"}

	// Reference: plain exactly-once apply, no dedup involved.
	ref := equivWarehouse(t, wal.SyncFlush, false)
	if _, err := (&ParallelIntegrator{W: ref, Workers: 4}).Apply(ops); err != nil {
		t.Fatalf("reference apply: %v", err)
	}

	// Dedup warehouse: overlapping batches with a full replay at the end.
	w := equivWarehouse(t, wal.SyncFlush, false)
	al, err := EnsureAppliedLog(w)
	if err != nil {
		t.Fatal(err)
	}
	in := &ParallelIntegrator{W: w, Workers: 4, Applied: al}
	third := len(ops) / 3
	batches := [][]int{
		{0, 2 * third},        // first delivery
		{third, len(ops)},     // redelivery overlapping the tail
		{0, len(ops)},         // full replay (reconnect from seq 0)
		{2 * third, len(ops)}, // replay of an already-complete suffix
	}
	for i, b := range batches {
		if _, err := in.Apply(ops[b[0]:b[1]]); err != nil {
			t.Fatalf("batch %d apply: %v", i, err)
		}
	}
	for _, name := range tables {
		a, b := tableImage(t, ref.DB, name), tableImage(t, w.DB, name)
		if len(a) != len(b) {
			t.Fatalf("%s: row count %d (once) vs %d (redelivered)", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s row %d differs:\n once        %s\n redelivered %s", name, i, a[i], b[i])
			}
		}
	}
	if got := in.metrics().skippedDup.Value(); got == 0 {
		t.Fatal("no duplicate ops skipped despite overlapping redeliveries")
	}
	maxSeq, err := al.MaxSeq()
	if err != nil {
		t.Fatal(err)
	}
	if want := ops[len(ops)-1].Seq; maxSeq != want {
		t.Fatalf("MaxSeq = %d, want %d", maxSeq, want)
	}
}

// TestRestartMidBatchResumesAfterHighWater: a batch whose sixth source
// transaction fails commits the five before it and none after, though
// the seventh has already run its statement — the state a crash in the
// middle of a batch leaves. The high-water row names the fifth op.
// Redelivering the whole batch then skips exactly those five as
// duplicates and applies the other seven once: a second apply of any op
// would fail on its primary key.
func TestRestartMidBatchResumesAfterHighWater(t *testing.T) {
	src := openDB(t)
	if _, err := src.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	w := replicaWarehouse(t, partsSchema(t, src))
	al, err := EnsureAppliedLog(w)
	if err != nil {
		t.Fatal(err)
	}
	var ops []*opdelta.Op
	for k := 1; k <= 12; k++ {
		ops = append(ops, &opdelta.Op{Seq: uint64(k), Txn: uint64(k), Kind: opdelta.OpInsert, Table: "parts",
			Stmt: fmt.Sprintf("INSERT INTO parts (part_id, status, qty) VALUES (%d, 's', %d)", k, k)})
	}
	// Key 6's statement fails once key 7's has run, so the seventh group
	// is parked at its turn, locks held, when the sixth fails. The twelve
	// single-row inserts first apply as one run, where key 6 runs before
	// key 7 in the same transaction and cannot wait for it: there — in
	// the transaction key 5 ran in — it fails at once, and the retry, one
	// source transaction per group, sets the scene above.
	var armed atomic.Bool
	armed.Store(true)
	ranSeventh := make(chan struct{})
	var fifthTx atomic.Pointer[engine.Tx]
	if err := w.DB.CreateStatementHook("parts", engine.StatementHook{Name: "crash",
		Fn: func(tx *engine.Tx, d *engine.StatementDelta) error {
			if !armed.Load() {
				return nil
			}
			switch d.After[0][0].Int() {
			case 5:
				fifthTx.Store(tx)
			case 7:
				close(ranSeventh)
			case 6:
				if tx == fifthTx.Load() {
					return errors.New("injected failure")
				}
				select {
				case <-ranSeventh:
				case <-time.After(10 * time.Second):
				}
				return errors.New("injected failure")
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	keys := func() string {
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

	in := &ParallelIntegrator{W: w, Workers: 4, Applied: al}
	stats, err := in.Apply(ops)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("first delivery: err = %v, want the injected failure", err)
	}
	if stats.Txns != 5 || keys() != "[1 2 3 4 5]" {
		t.Fatalf("first delivery committed %d transactions, keys %s; want the prefix 1-5", stats.Txns, keys())
	}
	if high, err := al.MaxSeq(); err != nil || high != 5 {
		t.Fatalf("high-water seq %d, %v; want 5", high, err)
	}

	armed.Store(false)
	restarted := &ParallelIntegrator{W: w, Workers: 4, Applied: al}
	stats, err = restarted.Apply(ops)
	if err != nil {
		t.Fatalf("redelivery: %v", err)
	}
	if got := restarted.metrics().skippedDup.Value(); got != 5 || stats.Txns != 7 || stats.Records != 7 {
		t.Fatalf("redelivery skipped %d ops and applied %d in %d transactions; want 5 skipped, 7 applied in 7",
			got, stats.Records, stats.Txns)
	}
	if keys() != "[1 2 3 4 5 6 7 8 9 10 11 12]" {
		t.Fatalf("keys after redelivery: %s", keys())
	}
	if high, err := al.MaxSeq(); err != nil || high != 12 {
		t.Fatalf("high-water seq %d, %v; want 12", high, err)
	}
	if rows := tableImage(t, w.DB, AppliedLogName); len(rows) != 1 {
		t.Fatalf("%s holds %d rows, want 1", AppliedLogName, len(rows))
	}
}

// TestAppliedLogRefusesPerOpLayout: a warehouse whose applied-ops table
// holds one row per op, as earlier builds wrote it, fails at
// EnsureAppliedLog with ErrAppliedLogLayout: its largest seq is no
// high-water mark, and reading it as one could skip an unapplied op.
func TestAppliedLogRefusesPerOpLayout(t *testing.T) {
	w := New(openDB(t))
	if _, err := w.DB.Exec(nil, "CREATE TABLE opdelta__applied (a_seq BIGINT NOT NULL) PRIMARY KEY (a_seq)"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.DB.Exec(nil, "INSERT INTO opdelta__applied (a_seq) VALUES (1), (2), (4)"); err != nil {
		t.Fatal(err)
	}
	if _, err := EnsureAppliedLog(w); !errors.Is(err, ErrAppliedLogLayout) {
		t.Fatalf("EnsureAppliedLog over the per-op layout = %v, want ErrAppliedLogLayout", err)
	}
}
