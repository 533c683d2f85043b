package engine

import (
	"errors"
	"fmt"

	"opdelta/internal/storage"
	"opdelta/internal/wal"
)

// recover replays the write-ahead log against the heap files. The
// protocol is a compact ARIES-style scheme adapted to this engine's
// quiescent checkpoints:
//
//  1. Find the last checkpoint in the log. Checkpoints are written with
//     no transactions active and all pages flushed, so nothing before
//     one needs replaying.
//  2. Undo: apply reverse images for transactions with no commit record
//     (in-flight at the crash, or aborted whose rollback pages may not
//     have reached disk), newest first. Undo runs BEFORE redo: a loser's
//     aborted insert may have freed a slot that a later committed insert
//     reused, and undoing it after redo would clobber the committed row;
//     undoing first erases every loser effect, and the directed redo
//     then rebuilds all committed state regardless.
//  3. Redo: apply every insert/delete/update of *committed*
//     transactions after the checkpoint in log order, directed at the
//     logged RIDs. Redo is idempotent — placing the same image at the
//     same RID twice is a no-op — so it is safe whether or not the page
//     reached disk.
//
// It returns the highest transaction ID seen so new IDs never collide.
func (db *DB) recover() (uint64, error) {
	recs, err := wal.ReadAllFS(db.fs, db.WALDir())
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, nil
	}
	start := 0
	var maxTxn uint64
	for i, r := range recs {
		if r.Type == wal.RecCheckpoint {
			start = i + 1
		}
		if r.Txn > maxTxn {
			maxTxn = r.Txn
		}
	}
	tail := recs[start:]
	if len(tail) == 0 {
		return maxTxn, nil
	}
	committed := make(map[uint64]bool)
	for _, r := range tail {
		if r.Type == wal.RecCommit {
			committed[r.Txn] = true
		}
	}
	// Undo losers first, newest record first (see the ordering note in
	// the function comment).
	for i := len(tail) - 1; i >= 0; i-- {
		r := tail[i]
		if committed[r.Txn] {
			continue
		}
		if err := db.undoOneRecovery(r); err != nil {
			return 0, fmt.Errorf("engine: undo lsn %d: %w", r.LSN, err)
		}
	}
	// Then redo committed work in log order.
	for _, r := range tail {
		if !committed[r.Txn] {
			continue
		}
		if err := db.redoOne(r); err != nil {
			return 0, fmt.Errorf("engine: redo lsn %d: %w", r.LSN, err)
		}
	}
	// Make the recovered state durable and draw a fresh line in the log.
	if err := db.writeCheckpoint(db.tablesSnapshot()); err != nil {
		return 0, err
	}
	return maxTxn, nil
}

func (db *DB) redoOne(r *wal.Record) error {
	switch r.Type {
	case wal.RecBegin, wal.RecCommit, wal.RecAbort, wal.RecCheckpoint:
		return nil
	}
	t, err := db.Table(r.Table)
	if err != nil {
		// The table may have been dropped after these records were
		// written; nothing to redo onto.
		return nil
	}
	rid := storage.RID{Page: storage.PageID(r.Page), Slot: r.Slot}
	switch r.Type {
	case wal.RecInsert:
		return t.heap.PlaceAt(rid, r.After)
	case wal.RecDelete:
		return t.heap.DeleteIfLive(rid)
	case wal.RecUpdate:
		newRID := storage.RID{Page: storage.PageID(r.NewPage), Slot: r.NewSlot}
		if newRID != rid {
			if err := t.heap.DeleteIfLive(rid); err != nil {
				return err
			}
		}
		return t.heap.PlaceAt(newRID, r.After)
	default:
		return fmt.Errorf("engine: unknown record type %v", r.Type)
	}
}

func (db *DB) undoOneRecovery(r *wal.Record) error {
	switch r.Type {
	case wal.RecBegin, wal.RecCommit, wal.RecAbort, wal.RecCheckpoint:
		return nil
	}
	t, err := db.Table(r.Table)
	if err != nil {
		return nil
	}
	rid := storage.RID{Page: storage.PageID(r.Page), Slot: r.Slot}
	switch r.Type {
	case wal.RecInsert:
		return t.heap.DeleteIfLive(rid)
	case wal.RecDelete:
		return t.heap.PlaceAt(rid, r.Before)
	case wal.RecUpdate:
		newRID := storage.RID{Page: storage.PageID(r.NewPage), Slot: r.NewSlot}
		if newRID != rid {
			if err := t.heap.DeleteIfLive(newRID); err != nil {
				return err
			}
		}
		return t.heap.PlaceAt(rid, r.Before)
	default:
		return fmt.Errorf("engine: unknown record type %v", r.Type)
	}
}

// ErrNotFound is returned by lookup helpers when no row matches.
var ErrNotFound = errors.New("engine: not found")
