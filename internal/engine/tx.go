package engine

import (
	"fmt"
	"sort"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/storage"
	"opdelta/internal/txn"
	"opdelta/internal/wal"
)

// Tx is one transaction. It is not safe for concurrent use by multiple
// goroutines. Transactions hold table locks until Commit or Abort.
type Tx struct {
	db    *DB
	id    txn.ID
	began bool // BEGIN written to WAL (deferred until first write)
	done  bool
	undo  []undoRec // one entry per write batch
	depth int       // trigger recursion depth
	// failed is the error that stopped the heap partway through a write
	// batch (doom): the transaction can only roll back.
	failed error
	// pins are heap slots this transaction tombstoned (deletes and
	// relocating updates) or shrank in place. They stay pinned until
	// finish: under key-range locking another transaction may write this
	// table concurrently, and rollback restores the record at exactly
	// the pinned RID and at its old size — a reused slot would be
	// clobbered, and bytes taken by another writer would not be there.
	pins []slotPin

	// onCommit hooks run after the commit record is durable; the
	// Op-Delta file log uses this to keep op capture off the critical
	// path of transaction management (the paper's "file log" variant).
	onCommit []func() error
	// onAbort hooks run after rollback completes.
	onAbort []func()

	// snapshot transactions read a pinned commit-LSN horizon through
	// version chains and never touch the lock manager; they reject
	// writes. snapID is the SnapshotRegistry handle pinning readLSN
	// against version GC.
	snapshot bool
	readLSN  uint64
	snapID   uint64
	// staged lists, per table, the version-chain keys this transaction
	// has a pending version of, so Commit can stamp them with the commit
	// LSN and Abort can drop them.
	staged []stagedKeys
	// commitLSN is the WAL LSN of this transaction's commit record, set
	// once Commit appends it (0 for read-only or aborted transactions).
	commitLSN uint64
}

// undoRec undoes one write batch. It shares the batch's rows, each
// carrying its before and after images; runs lists the spans of rows
// the heap wrote, in the order it wrote (and logged) them.
type undoRec struct {
	t       *Table
	typ     wal.RecType
	rows    []storage.BatchRow
	runs    []span
	indexed bool // the batch's index changes were made
}

// span is the rows [lo, hi) of a batch.
type span struct{ lo, hi int }

const maxTriggerDepth = 8

// slotPin records one heap slot barred from reuse until the pinning
// transaction finishes.
type slotPin struct {
	t   *Table
	rid storage.RID
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	db.activeMu.Lock()
	db.active++
	db.activeMu.Unlock()
	return &Tx{db: db, id: db.txns.Begin()}
}

// ID returns the transaction's identifier.
func (tx *Tx) ID() txn.ID { return tx.id }

// Snapshot reports whether this is a read-only snapshot transaction.
func (tx *Tx) Snapshot() bool { return tx.snapshot }

// ReadLSN returns the commit-LSN horizon a snapshot transaction reads
// at (0 for ordinary transactions).
func (tx *Tx) ReadLSN() uint64 { return tx.readLSN }

// CommitLSN returns the WAL LSN of the transaction's commit record, or
// 0 if it has not committed (or had nothing to commit). Equivalence
// harnesses use it to line snapshot reads up with writer commits.
func (tx *Tx) CommitLSN() uint64 { return tx.commitLSN }

// OnCommit registers fn to run after this transaction commits durably.
func (tx *Tx) OnCommit(fn func() error) { tx.onCommit = append(tx.onCommit, fn) }

// OnAbort registers fn to run if this transaction rolls back — by Abort,
// or by a Commit that could not append its commit record.
func (tx *Tx) OnAbort(fn func()) { tx.onAbort = append(tx.onAbort, fn) }

func (tx *Tx) ensureBegun() error {
	if tx.began {
		return nil
	}
	if _, err := tx.db.wal.Append(&wal.Record{Type: wal.RecBegin, Txn: uint64(tx.id)}); err != nil {
		return err
	}
	tx.began = true
	return nil
}

// doom records that the heap failed partway through one of tx's write
// batches, leaving rows written and logged that are not in the indexes,
// and returns err. From then on tx takes no statement, and Commit rolls
// it back.
func (tx *Tx) doom(err error) error {
	if tx.failed == nil {
		tx.failed = err
	}
	return err
}

// usable returns why tx can run no further statement, or nil.
func (tx *Tx) usable() error {
	if tx.done {
		return fmt.Errorf("engine: transaction %d already finished", tx.id)
	}
	if tx.failed != nil {
		return fmt.Errorf("engine: transaction %d must roll back, a write failed partway: %w", tx.id, tx.failed)
	}
	return nil
}

func (tx *Tx) finish() {
	tx.done = true
	for _, p := range tx.pins {
		p.t.heap.UnpinSlot(p.rid)
	}
	tx.pins = nil
	tx.db.locks.ReleaseAll(tx.id)
	tx.db.activeMu.Lock()
	tx.db.active--
	tx.db.activeMu.Unlock()
	if tx.snapshot {
		tx.releaseSnapshot()
	}
}

// Commit makes the transaction's effects durable per the WAL sync
// policy and releases its locks.
//
// Locks are released as soon as the commit record has its place in the
// log buffer, before it is durable (early lock release). The single log
// makes this safe: any transaction that read this one's writes appends
// its commit record later, so that record becoming durable implies this
// one's already is — a crash can never keep a reader of lost writes.
// Waiting for durability happens after release, where concurrent
// committers share one fsync via the WAL's group commit.
func (tx *Tx) Commit() error {
	if tx.done {
		return fmt.Errorf("engine: transaction %d already finished", tx.id)
	}
	if tx.failed != nil {
		err := tx.usable()
		tx.Abort()
		return err
	}
	if tx.began {
		// The commit gate pairs the append with the resolved-prefix
		// bookkeeping snapshot visibility relies on: the commit is not
		// readable until mvccEndCommit marks its version stamps resolved.
		lsn, err := tx.db.mvccBeginCommit(&wal.Record{Type: wal.RecCommit, Txn: uint64(tx.id)})
		if err != nil {
			// The commit record never reached the log: this is a rollback,
			// and whoever registered abort hooks (the op logs resolve their
			// in-flight seqs there) must hear about it.
			tx.rollback()
			tx.dropStaged()
			tx.finish()
			for _, fn := range tx.onAbort {
				fn()
			}
			return err
		}
		tx.commitLSN = uint64(lsn)
		tx.finish()
		// Stamp after lock release (early release is unaffected: stamps
		// resolve before the commit becomes visible, and later writers
		// stage above our still-pending entries).
		tx.resolveStaged(uint64(lsn))
		tx.db.mvccEndCommit(lsn)
		tx.db.maybeVersionGC()
		if err := tx.db.wal.WaitDurable(lsn); err != nil {
			// Locks are gone and the commit record is in the log buffer;
			// whether it survives is recovery's call now.
			return err
		}
	} else {
		tx.finish()
	}
	for _, fn := range tx.onCommit {
		if err := fn(); err != nil {
			return fmt.Errorf("engine: post-commit hook: %w", err)
		}
	}
	return nil
}

// Abort rolls the transaction back and releases its locks.
func (tx *Tx) Abort() error {
	if tx.done {
		return fmt.Errorf("engine: transaction %d already finished", tx.id)
	}
	err := tx.rollback()
	tx.dropStaged()
	if tx.began {
		if _, werr := tx.db.wal.Append(&wal.Record{Type: wal.RecAbort, Txn: uint64(tx.id)}); werr != nil && err == nil {
			err = werr
		}
	}
	tx.finish()
	for _, fn := range tx.onAbort {
		fn()
	}
	return err
}

// rollback applies the undo list in reverse order.
func (tx *Tx) rollback() error {
	var firstErr error
	for i := len(tx.undo) - 1; i >= 0; i-- {
		if err := tx.undo[i].undo(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	tx.undo = nil
	return firstErr
}

// undo reverses one batch: its index changes as a whole, then the rows
// it wrote, newest first.
func (u *undoRec) undo() error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if u.indexed {
		note(u.unindex())
	}
	for k := len(u.runs) - 1; k >= 0; k-- {
		for i := u.runs[k].hi - 1; i >= u.runs[k].lo; i-- {
			note(u.undoRow(&u.rows[i]))
		}
	}
	return firstErr
}

// undoRow puts one written row back.
func (u *undoRec) undoRow(r *storage.BatchRow) error {
	t := u.t
	switch u.typ {
	case wal.RecInsert:
		return t.heap.DeleteIfLive(r.RID)
	case wal.RecDelete:
		return t.heap.PlaceAt(r.RID, r.Before)
	case wal.RecUpdate:
		if r.NewRID != r.RID {
			if err := t.heap.DeleteIfLive(r.NewRID); err != nil {
				return err
			}
		}
		return t.heap.PlaceAt(r.RID, r.Before)
	default:
		return fmt.Errorf("engine: cannot undo record type %v", u.typ)
	}
}

// unindex reverses the batch's index changes: the entries of its after
// images go, those of its before images come back.
func (u *undoRec) unindex() error {
	images := func(image func(r *storage.BatchRow) []byte) ([]catalog.Tuple, error) {
		out := make([]catalog.Tuple, len(u.rows))
		for i := range u.rows {
			if enc := image(&u.rows[i]); enc != nil {
				tup, err := catalog.DecodeTuple(u.t.Schema, enc)
				if err != nil {
					return nil, err
				}
				out[i] = tup
			}
		}
		return out, nil
	}
	before, err := images(func(r *storage.BatchRow) []byte { return r.Before })
	if err != nil {
		return err
	}
	after, err := images(func(r *storage.BatchRow) []byte { return r.After })
	if err != nil {
		return err
	}
	var gone, back func(i int) (catalog.Tuple, storage.RID)
	if u.typ != wal.RecDelete {
		gone = func(i int) (catalog.Tuple, storage.RID) { return after[i], u.rows[i].NewRID }
	}
	if u.typ != wal.RecInsert {
		back = func(i int) (catalog.Tuple, storage.RID) { return before[i], u.rows[i].RID }
	}
	return u.t.reindex(len(u.rows), gone, back)
}

// LockTablesExclusive takes exclusive locks on every named table in one
// canonical (sorted, deduplicated) order. Transactions that pre-declare
// their write sets this way cannot deadlock with one another — the
// parallel warehouse applier uses it so key-disjoint source
// transactions can run concurrently without lock-order cycles.
func (tx *Tx) LockTablesExclusive(tables ...string) error {
	if tx.done {
		return fmt.Errorf("engine: transaction %d already finished", tx.id)
	}
	if tx.snapshot {
		return fmt.Errorf("engine: snapshot transaction %d is read-only", tx.id)
	}
	names := make([]string, 0, len(tables))
	seen := make(map[string]bool, len(tables))
	for _, name := range tables {
		t, err := tx.db.Table(name)
		if err != nil {
			return err
		}
		if !seen[t.Name] {
			seen[t.Name] = true
			names = append(names, t.Name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if err := tx.lockExclusive(name); err != nil {
			return err
		}
	}
	return nil
}

// LockRangesExclusive takes exclusive key-range locks on table (plus
// the IX intention lock the hierarchy requires), acquiring the ranges
// in canonical sorted order. Combined with footprint pre-declaration it
// lets key-disjoint transactions write the same table concurrently: the
// parallel warehouse applier declares each source transaction's
// computed footprint this way, and the executor's per-statement range
// locks are then already covered. On failure, ranges granted before the
// failing one stay held until the transaction finishes (Abort releases
// them).
func (tx *Tx) LockRangesExclusive(table string, ranges []keyset.KeyRange) error {
	if tx.done {
		return fmt.Errorf("engine: transaction %d already finished", tx.id)
	}
	if tx.snapshot {
		return fmt.Errorf("engine: snapshot transaction %d is read-only", tx.id)
	}
	t, err := tx.db.Table(table)
	if err != nil {
		return err
	}
	return tx.db.locks.AcquireRanges(tx.id, t.Name, txn.Exclusive, ranges)
}

// lockShared acquires a shared lock on table for tx.
func (tx *Tx) lockShared(table string) error {
	return tx.db.locks.Acquire(tx.id, table, txn.Shared)
}

// lockRangeShared takes a shared key-range lock (plus the IS intention
// lock) covering one PK interval. Readers whose plan provably visits
// only that interval use it instead of the whole-table S lock, so they
// coexist with writers holding exclusive ranges elsewhere in the table.
func (tx *Tx) lockRangeShared(table string, r keyset.KeyRange) error {
	return tx.db.locks.AcquireRanges(tx.id, table, txn.Shared, []keyset.KeyRange{r})
}

// lockExclusive acquires an exclusive lock on table for tx.
func (tx *Tx) lockExclusive(table string) error {
	return tx.db.locks.Acquire(tx.id, table, txn.Exclusive)
}
