package engine

import (
	"fmt"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/storage"
)

// Secondary indexes: non-unique ordered indexes over one column,
// implemented as B+-trees of order-preserving composite (value, RID)
// keys (see enc.go). The paper's timestamp method depends on one:
// "the time stamp based methods require table scans unless an index is
// defined on the time stamp attribute".

// secIndex is one secondary index.
type secIndex struct {
	col  int // column position in the table schema
	tree *btree
}

// CreateSecondaryIndex builds a non-unique ordered index on the named
// column, persists it in the catalog, and back-fills it from the heap.
// Range and equality predicates over that column then use the index
// when they cover the whole WHERE clause.
//
// The backfill runs under the table's exclusive lock. Every writer
// holds an intention lock on the table from its first write until it
// commits or rolls back, and updates the heap and the indexes inside
// that span; so once the lock is granted the heap holds no half-applied
// write, and a writer that comes after waits until the index is
// registered, and then maintains it.
func (db *DB) CreateSecondaryIndex(table, column string) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	col, ok := t.Schema.ColIndex(column)
	if !ok {
		return fmt.Errorf("engine: no column %q in %s", column, table)
	}
	tx := db.Begin()
	defer tx.Commit()
	if err := tx.lockExclusive(t.Name); err != nil {
		return err
	}
	if t.secIndexOn(col) != nil {
		return fmt.Errorf("engine: index on %s.%s already exists", table, column)
	}
	_, trees, err := t.buildIndexes(false, []int{col})
	if err != nil {
		return err
	}
	t.idxMu.Lock()
	t.sec = append(t.sec, &secIndex{col: col, tree: trees[0]})
	t.idxMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.saveCatalogLocked()
}

// DropSecondaryIndex removes the index on the named column.
func (db *DB) DropSecondaryIndex(table, column string) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	col, ok := t.Schema.ColIndex(column)
	if !ok {
		return fmt.Errorf("engine: no column %q in %s", column, table)
	}
	t.idxMu.Lock()
	found := false
	for i, si := range t.sec {
		if si.col == col {
			t.sec = append(t.sec[:i], t.sec[i+1:]...)
			found = true
			break
		}
	}
	t.idxMu.Unlock()
	if !found {
		return fmt.Errorf("engine: no index on %s.%s", table, column)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.saveCatalogLocked()
}

// SecondaryIndexes lists the indexed column names.
func (t *Table) SecondaryIndexes() []string {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	out := make([]string, 0, len(t.sec))
	for _, si := range t.sec {
		out = append(out, t.Schema.Column(si.col).Name)
	}
	return out
}

// secInsertLocked/secDeleteLocked maintain every secondary index for
// one row change; callers hold idxMu.
func (t *Table) secInsertLocked(tup catalog.Tuple, rid storage.RID) error {
	for _, si := range t.sec {
		key, err := indexEntryKey(tup[si.col], rid)
		if err != nil {
			return err
		}
		if err := si.tree.Insert(key, rid); err != nil {
			return fmt.Errorf("engine: secondary index on %s: %w", t.Schema.Column(si.col).Name, err)
		}
	}
	return nil
}

func (t *Table) secDeleteLocked(tup catalog.Tuple, rid storage.RID) error {
	for _, si := range t.sec {
		key, err := indexEntryKey(tup[si.col], rid)
		if err != nil {
			return err
		}
		si.tree.Delete(key)
	}
	return nil
}

// secIndexFor returns the index over the named column, if any.
func (t *Table) secIndexFor(name string) *secIndex {
	col, ok := t.Schema.ColIndex(name)
	if !ok {
		return nil
	}
	return t.secIndexOn(col)
}

// secIndexOn returns the index over the column at position col, if any.
func (t *Table) secIndexOn(col int) *secIndex {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	for _, si := range t.sec {
		if si.col == col {
			return si
		}
	}
	return nil
}

// rangeSecondary collects RIDs of entries whose column value lies in
// r, in value order, the first limit of them when limit > 0.
func (t *Table) rangeSecondary(si *secIndex, r keyset.KeyRange, limit int) ([]storage.RID, error) {
	loKey, hiKey, err := indexRangeBounds(r)
	if err != nil {
		return nil, err
	}
	var out []storage.RID
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	si.tree.Range(loKey, hiKey, func(k catalog.Value, _ storage.RID) bool {
		out = append(out, decodeEntryRID(k))
		return len(out) != limit
	})
	return out, nil
}

// IndexEdge returns up to n rows from the low end (or, with desc, the
// high end) of the secondary index on column, in index order from that
// end, under a shared table lock. A nil tx uses an internal
// transaction. It answers MIN/MAX-style questions — "what is the
// highest sequence number in this log table" — in O(log rows + n)
// instead of a scan.
func (db *DB) IndexEdge(tx *Tx, table, column string, desc bool, n int) ([]catalog.Tuple, error) {
	if n <= 0 {
		return nil, nil
	}
	if tx == nil {
		tx = db.Begin()
		defer tx.Commit()
	}
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	si := t.secIndexFor(column)
	if si == nil {
		return nil, fmt.Errorf("engine: no index on %s.%s", table, column)
	}
	if err := tx.lockShared(t.Name); err != nil {
		return nil, err
	}
	rids := make([]storage.RID, 0, n)
	visit := func(k catalog.Value, _ storage.RID) bool {
		rids = append(rids, decodeEntryRID(k))
		return len(rids) < n
	}
	t.idxMu.RLock()
	if desc {
		si.tree.Descend(visit)
	} else {
		si.tree.Range(nil, nil, visit)
	}
	t.idxMu.RUnlock()
	targets, err := db.targetsFromRIDs(t, rids)
	if err != nil {
		return nil, err
	}
	rows := make([]catalog.Tuple, len(targets))
	for i, tg := range targets {
		rows[i] = tg.Tuple
	}
	return rows, nil
}
