package simcrash

// Crash-inside-a-batch scenario. Each statement of the workload writes
// rows on several heap pages as one batch, through a two-page buffer
// pool, so pages are written back while their statement is still
// running. A crash can strike at any filesystem operation and at the
// batch's own crash points (fault.CrashPoint): between a page's writes
// and its log records, and between two pages. After recovery every
// statement — each its own transaction — must be there whole or not at
// all: the table equals the state after some prefix of the workload,
// at least every transaction whose Commit returned, and at most the one
// whose Commit was running besides.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/wal"
)

const batchRows = 60

// batchStatements is the workload: a multi-page insert, a multi-page
// update that grows some records past their page (they relocate) and
// shrinks others, a multi-page delete, and an insert into the freed
// space.
func batchStatements() []string {
	var ins, refill []string
	for i := 0; i < batchRows; i++ {
		ins = append(ins, fmt.Sprintf("(%d, '%s')", i, strings.Repeat("v", 150+(i*53)%200)))
	}
	for i := batchRows; i < batchRows+20; i++ {
		refill = append(refill, fmt.Sprintf("(%d, '%s')", i, strings.Repeat("r", 100+(i*29)%150)))
	}
	return []string{
		"INSERT INTO t (id, val) VALUES " + strings.Join(ins, ", "),
		fmt.Sprintf("UPDATE t SET val = val + '%s' WHERE id BETWEEN 0 AND %d", strings.Repeat("u", 120), batchRows/2),
		fmt.Sprintf("UPDATE t SET val = 'short' WHERE id BETWEEN %d AND %d", batchRows/2+1, batchRows-1),
		fmt.Sprintf("DELETE FROM t WHERE id BETWEEN 10 AND %d", batchRows-10),
		"INSERT INTO t (id, val) VALUES " + strings.Join(refill, ", "),
	}
}

// batchProgress is what the crashed workload had promised, kept outside
// the process the crash kills.
type batchProgress struct {
	committed int  // statements whose Commit returned
	inCommit  bool // the next statement's Commit was running
}

func batchEngine(fsys fault.FS) (*engine.DB, error) {
	clock := int64(0)
	return engine.Open(dbDir, engine.Options{
		PoolPages: 2, // every statement's pages are written back mid-batch
		WALSync:   wal.SyncFull,
		FS:        fsys,
		Now:       func() time.Time { clock++; return time.Unix(0, clock) },
	})
}

func runBatchWorkload(fsys fault.FS, p *batchProgress) error {
	db, err := batchEngine(fsys)
	if err != nil {
		return err
	}
	if _, err := db.Exec(nil, "CREATE TABLE t (id BIGINT NOT NULL, val VARCHAR) PRIMARY KEY (id)"); err != nil {
		return err
	}
	for _, sql := range batchStatements() {
		tx := db.Begin()
		if _, err := db.Exec(tx, sql); err != nil {
			return fmt.Errorf("%.40s: %w", sql, err)
		}
		p.inCommit = true
		if err := tx.Commit(); err != nil {
			return err
		}
		p.inCommit = false
		p.committed++
	}
	return db.Close()
}

// batchStates returns the table after each prefix of the workload, as
// a clean run on a fresh filesystem leaves it, and the run's count of
// mutating filesystem operations and crash points.
func batchStates() ([]string, uint64, error) {
	fsys := fault.NewSimFS(1)
	db, err := batchEngine(fsys)
	if err != nil {
		return nil, 0, err
	}
	if _, err := db.Exec(nil, "CREATE TABLE t (id BIGINT NOT NULL, val VARCHAR) PRIMARY KEY (id)"); err != nil {
		return nil, 0, err
	}
	states := []string{""}
	for _, sql := range batchStatements() {
		if _, err := db.Exec(nil, sql); err != nil {
			return nil, 0, err
		}
		img, err := batchImage(db)
		if err != nil {
			return nil, 0, err
		}
		states = append(states, img)
	}
	if err := db.Close(); err != nil {
		return nil, 0, err
	}
	if t, _ := db.Table("t"); t.Heap().NumPages() < 3 {
		return nil, 0, fmt.Errorf("the workload fits %d pages; its batches must span several", t.Heap().NumPages())
	}
	clean := fault.NewSimFS(1)
	if err := runBatchWorkload(clean, &batchProgress{}); err != nil {
		return nil, 0, err
	}
	return states, clean.Ops(), nil
}

func batchImage(db *engine.DB) (string, error) {
	if _, err := db.Table("t"); err != nil {
		return "", nil // the crash came before the table was
	}
	var rows []string
	err := db.ScanTable(nil, "t", func(tup catalog.Tuple) error {
		rows = append(rows, tup.String())
		return nil
	})
	sort.Strings(rows)
	return strings.Join(rows, "\n"), err
}

// RunBatchCrash crashes the batch workload at mutating operation op
// (before or after it applies), recovers, and checks statement
// atomicity against states (from batchStates).
func RunBatchCrash(states []string, op uint64, before bool) error {
	fsys := fault.NewSimFS(int64(op))
	fsys.SetScript(&fault.Script{
		CrashOp: op, CrashBefore: before,
		TornTail: func(path string) bool { return !strings.HasSuffix(path, ".heap") },
	})
	p := &batchProgress{}
	var workErr error
	if !fault.RunToCrash(func() { workErr = runBatchWorkload(fsys, p) }) {
		return fmt.Errorf("crash at op %d never fired (workload err: %v)", op, workErr)
	}
	db, err := batchEngine(fsys.Reboot())
	if err != nil {
		return fmt.Errorf("crash at op %d (before=%v): recovery: %w", op, before, err)
	}
	defer db.Close()
	img, err := batchImage(db)
	if err != nil {
		return err
	}
	lo, hi := p.committed, p.committed
	if p.inCommit {
		hi++
	}
	for k := lo; k <= hi; k++ {
		if img == states[k] {
			return nil
		}
	}
	for k, s := range states {
		if img == s {
			return fmt.Errorf("crash at op %d (before=%v): recovered the state after %d statements, want %d..%d",
				op, before, k, lo, hi)
		}
	}
	return fmt.Errorf("crash at op %d (before=%v): recovered a state after no statement boundary (%d committed, in commit %v):\n%s",
		op, before, p.committed, p.inCommit, img)
}
