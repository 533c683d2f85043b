package engine

import "opdelta/internal/catalog"

// InsertTuple inserts one pre-built tuple through the full engine write
// path (locking, WAL, index, triggers; statement hooks see it as a
// batch of one). Utilities such as Import use it to avoid SQL
// round-trips while still paying full insert-path cost. A nil tx
// autocommits.
func (db *DB) InsertTuple(tx *Tx, table string, tup catalog.Tuple) error {
	if tx == nil {
		tx = db.Begin()
		if err := db.InsertTuple(tx, table, tup); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	return tx.InsertRow(t, tup)
}

// RebuildIndex rescans the heap and rebuilds the primary-key index and
// every secondary index, each bottom-up from one sorted run. Bulk
// utilities that write heap pages directly (the ASCII Loader) call this
// afterward, mirroring how real loaders rebuild indexes after a
// direct-path load. Like the direct load before it, it must run with no
// writer on the table: it takes no table lock.
func (t *Table) RebuildIndex() error {
	_, err := t.rebuildIndex()
	return err
}
