// Package engine is the relational engine the reproduction treats as
// its "commercial DBMS" substrate: slotted-page heap tables behind
// buffer pools, a write-ahead log with optional archive mode, strict
// hierarchical two-phase locking (table intention modes over
// primary-key-range locks, with table locks as the fallback for
// unanalyzable statements), row-level triggers and statement-level
// hooks with transition tables, an engine-maintained last-modified
// timestamp column, and in-memory B+-tree indexes on the primary key
// and on secondary columns. Every delta-extraction method in the paper
// is built against this engine.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/fault"
	"opdelta/internal/obs"
	"opdelta/internal/storage"
	"opdelta/internal/txn"
	"opdelta/internal/wal"
)

// Options configures an engine instance.
type Options struct {
	// PoolPages is the buffer-pool capacity per table, in pages.
	// Default 256 (2 MiB per table).
	PoolPages int
	// WALSync is the commit durability policy. Default wal.SyncFlush.
	WALSync wal.SyncPolicy
	// WALSegmentSize overrides the WAL segment rotation threshold.
	WALSegmentSize int64
	// Archive enables WAL archive mode: closed segments accumulate in
	// <dir>/archive and are the source for log-based delta extraction.
	Archive bool
	// Now supplies timestamps for engine-maintained timestamp columns.
	// Tests inject logical clocks. Default time.Now.
	Now func() time.Time
	// LockTimeout bounds lock waits. Default 10s.
	LockTimeout time.Duration
	// FS routes all engine file I/O (heap files, WAL, catalog); nil
	// means the real filesystem. The fault-injection harness substitutes
	// a fault.SimFS here to crash and recover the whole engine in-process.
	FS fault.FS
	// Obs receives every engine metric (wal_*, txn_*, storage_pool_*).
	// Nil keeps each instance on its own fresh registry, so independent
	// engines — e.g. the per-run warehouses the bench harness opens —
	// never merge counters. Daemons pass obs.Default() to publish.
	Obs *obs.Registry
	// ObsDB, when non-empty, stamps a db=<name> label on the engine's
	// series so a process holding several engines on one registry
	// (opdeltad: source + warehouse) keeps them apart.
	ObsDB string
}

func (o *Options) fill() {
	if o.PoolPages <= 0 {
		o.PoolPages = 256
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// DB is one engine instance rooted at a directory.
type DB struct {
	dir  string
	opts Options
	fs   fault.FS

	wal   *wal.Writer
	locks *txn.LockManager
	txns  *txn.Manager

	obs       *obs.Registry
	obsLabels []obs.Label

	mvcc mvccState
	vm   *storage.VersionMetrics

	mu     sync.RWMutex // guards tables map and table metadata
	tables map[string]*Table

	activeMu sync.Mutex
	active   int // live transactions, for checkpoint quiescence

	closed bool
}

// Table is one heap table plus its metadata and runtime structures.
type Table struct {
	Name   string
	Schema *catalog.Schema
	PKCol  int // index of primary key column, -1 if none
	TSCol  int // index of engine-maintained timestamp column, -1 if none

	heap   *storage.HeapFile
	vstore *storage.VersionStore // tuple version chains for snapshot reads

	idxMu sync.RWMutex
	pk    *btree      // unique ordered index on the PK column; nil when PKCol < 0
	sec   []*secIndex // non-unique secondary indexes

	// openBuild is what Open's index rebuild cost: the entries built
	// and the time taken, exported as engine_index_rebuild_*.
	openBuild struct {
		keys  atomic.Uint64
		nanos atomic.Int64
	}

	trigMu   sync.RWMutex
	triggers []*Trigger
	hooks    []*StatementHook
}

// tableMeta is the persisted form of a table definition.
type tableMeta struct {
	Name    string    `json:"name"`
	Columns []colMeta `json:"columns"`
	PK      string    `json:"primary_key,omitempty"`
	TS      string    `json:"timestamp_column,omitempty"`
	Indexes []string  `json:"indexes,omitempty"` // secondary index columns
}

type colMeta struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	NotNull bool   `json:"not_null,omitempty"`
}

// Open opens (creating if necessary) the database in dir, runs crash
// recovery from the WAL, and rebuilds in-memory indexes.
func Open(dir string, opts Options) (*DB, error) {
	opts.fill()
	fsys := fault.OrOS(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var labels []obs.Label
	if opts.ObsDB != "" {
		labels = []obs.Label{obs.L("db", opts.ObsDB)}
	}
	wopts := wal.Options{Sync: opts.WALSync, SegmentSize: opts.WALSegmentSize, FS: fsys,
		Obs: reg, ObsLabels: labels}
	if opts.Archive {
		wopts.ArchiveDir = filepath.Join(dir, "archive")
	}
	w, err := wal.Open(filepath.Join(dir, "wal"), wopts)
	if err != nil {
		return nil, err
	}
	db := &DB{
		dir:       dir,
		opts:      opts,
		fs:        fsys,
		wal:       w,
		locks:     txn.NewLockManagerObs(opts.LockTimeout, reg, labels...),
		vm:        storage.NewVersionMetrics(reg, labels...),
		tables:    make(map[string]*Table),
		obs:       reg,
		obsLabels: labels,
	}
	db.mvcc.snaps = txn.NewSnapshotRegistry(opts.Now)
	db.mvcc.gcNext.Store(gcBaseThreshold)
	reg.GaugeFunc("mvcc_oldest_snapshot_age_seconds", func() float64 {
		return db.mvcc.snaps.OldestAge().Seconds()
	}, labels...)
	reg.GaugeFunc("mvcc_version_count", func() float64 {
		return float64(db.VersionCount())
	}, labels...)
	if err := db.loadCatalog(); err != nil {
		w.Close()
		return nil, err
	}
	maxTxn, err := db.recover()
	if err != nil {
		db.closeTables()
		w.Close()
		return nil, err
	}
	db.txns = txn.NewManager(txn.ID(maxTxn))
	// Every commit recovery replayed is fully settled; the version store
	// is memory-only and rebuilds empty, so the same point is also the
	// floor below which AS OF reads have no history to consult.
	db.mvcc.visible = uint64(w.NextLSN()) - 1
	db.mvcc.lowWater = db.mvcc.visible
	for _, t := range db.tables {
		start := time.Now()
		built, err := t.rebuildIndex()
		if err != nil {
			db.closeTables()
			w.Close()
			return nil, err
		}
		t.openBuild.keys.Store(uint64(built))
		t.openBuild.nanos.Store(int64(time.Since(start)))
	}
	return db, nil
}

// Dir returns the database root directory.
func (db *DB) Dir() string { return db.dir }

// WALDir returns the live WAL directory.
func (db *DB) WALDir() string { return filepath.Join(db.dir, "wal") }

// ArchiveDir returns the WAL archive directory (meaningful when the
// Archive option is set).
func (db *DB) ArchiveDir() string { return filepath.Join(db.dir, "archive") }

// WAL exposes the log writer (extraction utilities rotate/inspect it).
func (db *DB) WAL() *wal.Writer { return db.wal }

// Obs returns the registry holding this engine's metrics (the injected
// Options.Obs, or the instance's private registry).
func (db *DB) Obs() *obs.Registry { return db.obs }

// LockStats snapshots the lock manager's global counters.
func (db *DB) LockStats() txn.LockStats { return db.locks.Stats() }

// LockTableStats snapshots the lock manager's per-table counters
// (acquires, waits, wait time, upgrades, fallbacks, escalations); the
// bench harness exports them next to throughput numbers.
func (db *DB) LockTableStats() map[string]txn.TableLockStats { return db.locks.TableStats() }

// Now returns the engine clock's current time.
func (db *DB) Now() time.Time { return db.opts.Now() }

func (db *DB) catalogPath() string { return filepath.Join(db.dir, "catalog.json") }

func (db *DB) loadCatalog() error {
	data, err := db.fs.ReadFile(db.catalogPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var metas []tableMeta
	if err := json.Unmarshal(data, &metas); err != nil {
		return fmt.Errorf("engine: corrupt catalog: %w", err)
	}
	for _, m := range metas {
		t, err := db.openTable(m)
		if err != nil {
			return err
		}
		db.tables[strings.ToLower(m.Name)] = t
	}
	return nil
}

func (db *DB) saveCatalogLocked() error {
	metas := make([]tableMeta, 0, len(db.tables))
	for _, t := range db.tables {
		m := tableMeta{Name: t.Name}
		for _, c := range t.Schema.Columns() {
			m.Columns = append(m.Columns, colMeta{Name: c.Name, Type: c.Type.String(), NotNull: c.NotNull})
		}
		if t.PKCol >= 0 {
			m.PK = t.Schema.Column(t.PKCol).Name
		}
		if t.TSCol >= 0 {
			m.TS = t.Schema.Column(t.TSCol).Name
		}
		m.Indexes = t.SecondaryIndexes()
		metas = append(metas, m)
	}
	data, err := json.MarshalIndent(metas, "", "  ")
	if err != nil {
		return err
	}
	// Temp file + fsync + rename: the fsync must precede the rename or a
	// power loss can publish an empty catalog under the final name.
	tmp := db.catalogPath() + ".tmp"
	f, err := db.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return db.fs.Rename(tmp, db.catalogPath())
}

func (db *DB) openTable(m tableMeta) (*Table, error) {
	cols := make([]catalog.Column, 0, len(m.Columns))
	for _, c := range m.Columns {
		typ, err := catalog.TypeFromName(c.Type)
		if err != nil {
			return nil, err
		}
		cols = append(cols, catalog.Column{Name: c.Name, Type: typ, NotNull: c.NotNull})
	}
	schema := catalog.NewSchema(cols...)
	t := &Table{Name: m.Name, Schema: schema, PKCol: -1, TSCol: -1}
	if m.PK != "" {
		i, ok := schema.ColIndex(m.PK)
		if !ok {
			return nil, fmt.Errorf("engine: table %q: primary key column %q missing", m.Name, m.PK)
		}
		t.PKCol = i
		t.pk = newBtree()
	}
	if m.TS != "" {
		i, ok := schema.ColIndex(m.TS)
		if !ok {
			return nil, fmt.Errorf("engine: table %q: timestamp column %q missing", m.Name, m.TS)
		}
		if schema.Column(i).Type != catalog.TypeTime {
			return nil, fmt.Errorf("engine: table %q: timestamp column %q is %s, want TIMESTAMP",
				m.Name, m.TS, schema.Column(i).Type)
		}
		t.TSCol = i
	}
	for _, idxCol := range m.Indexes {
		i, ok := schema.ColIndex(idxCol)
		if !ok {
			return nil, fmt.Errorf("engine: table %q: indexed column %q missing", m.Name, idxCol)
		}
		t.sec = append(t.sec, &secIndex{col: i, tree: newBtree()})
	}
	heap, err := storage.OpenHeapFileFS(db.fs, filepath.Join(db.dir, strings.ToLower(m.Name)+".heap"), db.opts.PoolPages)
	if err != nil {
		return nil, err
	}
	// Enforce write-ahead ordering before any dirty page reaches its
	// file.
	heap.Pool().SetBeforePageWrite(db.wal.PageBarrier)
	poolLabels := append(append([]obs.Label(nil), db.obsLabels...),
		obs.L("pool", strings.ToLower(m.Name)))
	heap.Pool().RegisterObs(db.obs, poolLabels...)
	tableLabels := append(append([]obs.Label(nil), db.obsLabels...),
		obs.L("table", strings.ToLower(m.Name)))
	db.obs.CounterFunc("engine_index_rebuild_keys_total", func() float64 {
		return float64(t.openBuild.keys.Load())
	}, tableLabels...)
	db.obs.CounterFunc("engine_index_rebuild_seconds_total", func() float64 {
		return time.Duration(t.openBuild.nanos.Load()).Seconds()
	}, tableLabels...)
	t.heap = heap
	t.vstore = storage.NewVersionStore(db.vm)
	return t, nil
}

// TableDef describes a table to create programmatically (the SQL path
// goes through CREATE TABLE).
type TableDef struct {
	Name         string
	Schema       *catalog.Schema
	PrimaryKey   string // optional column name
	TimestampCol string // optional TIMESTAMP column maintained by the engine
}

// CreateTable creates a new empty table.
func (db *DB) CreateTable(def TableDef) (*Table, error) {
	if def.Name == "" || def.Schema == nil || def.Schema.NumColumns() == 0 {
		return nil, fmt.Errorf("engine: invalid table definition")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(def.Name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("engine: table %q already exists", def.Name)
	}
	m := tableMeta{Name: def.Name, PK: def.PrimaryKey, TS: def.TimestampCol}
	for _, c := range def.Schema.Columns() {
		m.Columns = append(m.Columns, colMeta{Name: c.Name, Type: c.Type.String(), NotNull: c.NotNull})
	}
	t, err := db.openTable(m)
	if err != nil {
		return nil, err
	}
	db.tables[key] = t
	if err := db.saveCatalogLocked(); err != nil {
		delete(db.tables, key)
		t.heap.Close()
		return nil, err
	}
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: no table %q", name)
	}
	return t, nil
}

// Schema returns the named table's schema — the resolver op encode and
// decode take (a method value, db.Schema).
func (db *DB) Schema(table string) (*catalog.Schema, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	return t.Schema, nil
}

// Tables returns the table names in the catalog.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	return out
}

// DropTable removes a table and its heap file. The table must not be in
// use by active transactions; callers coordinate that.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := db.tables[key]
	if !ok {
		return fmt.Errorf("engine: no table %q", name)
	}
	if err := t.heap.Close(); err != nil {
		return err
	}
	delete(db.tables, key)
	// Every chain is past any watermark once no transaction uses the
	// table: the pass at the top one empties the store, taking its
	// versions out of the engine-wide live count.
	t.vstore.GC(math.MaxUint64)
	if err := db.fs.Remove(filepath.Join(db.dir, key+".heap")); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return db.saveCatalogLocked()
}

// Checkpoint flushes all dirty pages and writes a checkpoint record,
// allowing earlier WAL segments to be recycled. It requires quiescence:
// an error is returned when transactions are active.
func (db *DB) Checkpoint() error {
	db.activeMu.Lock()
	n := db.active
	db.activeMu.Unlock()
	if n > 0 {
		return fmt.Errorf("engine: checkpoint requires quiescence, %d transactions active", n)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	if err := db.writeCheckpoint(tables); err != nil {
		return err
	}
	// Quiescence means no snapshot is pinning history: drop every
	// version chain (in-memory, so this cannot perturb the flush/record
	// ordering above). The table list is passed in because db.mu is
	// already held here — versionGC must not re-enter it.
	db.versionGC(tables)
	// Closed segments before the active one are now recoverable-from
	// nowhere needed; recycle them (archive copies remain if enabled).
	return db.wal.Recycle(db.wal.ActiveSegment())
}

// writeCheckpoint flushes every page of tables, then appends a
// checkpoint record and syncs the log, so recovery starts after the
// record. No transaction may be active.
func (db *DB) writeCheckpoint(tables []*Table) error {
	for _, t := range tables {
		if err := t.heap.Flush(); err != nil {
			return err
		}
	}
	if _, err := db.wal.Append(&wal.Record{Type: wal.RecCheckpoint}); err != nil {
		return err
	}
	return db.wal.Sync()
}

// Close checkpoints and shuts the engine down.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()

	if err := db.Checkpoint(); err != nil {
		// Best effort: still close files.
		db.closeTables()
		db.wal.Close()
		return err
	}
	var firstErr error
	db.mu.Lock()
	for _, t := range db.tables {
		if err := t.heap.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	db.mu.Unlock()
	if err := db.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

func (db *DB) closeTables() {
	for _, t := range db.tables {
		t.heap.Close()
	}
}

// Heap exposes the table's heap file for utilities (loader, snapshots).
func (t *Table) Heap() *storage.HeapFile { return t.heap }

// NumRows returns the live row count.
func (t *Table) NumRows() int64 { return t.heap.NumRecords() }

// rebuildIndex rebuilds the primary-key index and every secondary
// index from one heap scan (bulk.go) and returns the entries built. The
// caller keeps writers off the table: Open runs it before the engine
// serves, and RebuildIndex's callers after a load that nothing else
// writes beside.
func (t *Table) rebuildIndex() (int, error) {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.PKCol < 0 && len(t.sec) == 0 {
		return 0, nil
	}
	cols := make([]int, len(t.sec))
	for i, si := range t.sec {
		cols[i] = si.col
	}
	pk, sec, err := t.buildIndexes(t.PKCol >= 0, cols)
	if err != nil {
		return 0, err
	}
	t.pk = pk
	built := 0
	if pk != nil {
		built = pk.Len()
	}
	for i, si := range t.sec {
		si.tree = sec[i]
		built += si.tree.Len()
	}
	return built, nil
}

// LookupPK returns the RID holding the given primary-key value.
func (t *Table) LookupPK(v catalog.Value) (storage.RID, bool) {
	if t.PKCol < 0 {
		return storage.InvalidRID, false
	}
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	return t.pk.Get(v)
}

// RangePK visits (key, rid) pairs with lo <= key <= hi in key order
// under the index read lock. Nil bounds are open.
func (t *Table) RangePK(lo, hi *catalog.Value, fn func(catalog.Value, storage.RID) bool) {
	if t.PKCol < 0 {
		return
	}
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	t.pk.Range(lo, hi, fn)
}

// secKeysDifferLocked reports whether any secondary-indexed column
// changed between the two images. Caller holds idxMu.
func (t *Table) secKeysDifferLocked(before, after catalog.Tuple) bool {
	for _, si := range t.sec {
		if !catalog.Equal(before[si.col], after[si.col]) {
			return true
		}
	}
	return false
}
