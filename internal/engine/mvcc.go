package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/sqlmini"
	"opdelta/internal/storage"
	"opdelta/internal/txn"
	"opdelta/internal/wal"
)

// mvccState is the engine's snapshot-visibility bookkeeping. Snapshot
// readers pin readLSN = min(visible, wal.CommitVisibleLSN()): the newest
// commit LSN that is both version-resolved (every committed write at or
// below it has its chain entries stamped) and settled by the WAL's
// durability policy. Both horizons are monotone, so their min is, which
// is what makes the GC watermark argument in txn.SnapshotRegistry hold.
type mvccState struct {
	mu sync.Mutex
	// visible is the highest commit LSN whose prefix is fully resolved:
	// every commit record at or below it has stamped its version-chain
	// entries. Commits above it may exist in the WAL but their chain
	// entries can still be pending, so snapshots must not read past it.
	visible uint64
	// lowWater is the version-GC horizon: AS OF reads below it would see
	// chains already pruned (or, after a restart, never rebuilt — the
	// version store is memory-only) and are rejected as "snapshot too
	// old". It is raised to the GC watermark BEFORE pruning starts, so a
	// concurrent AS OF validated against it can never land under an
	// in-flight prune.
	lowWater uint64
	// outstanding tracks commit records appended through the gate whose
	// version stamps are not yet resolved, in append (= LSN) order.
	outstanding []commitMark
	// gcNext is the live version count at which a commit runs the next
	// automatic GC pass. A pass sets it under mu; the last snapshot's
	// release re-arms it; the commit path reads it without a lock.
	gcNext atomic.Int64

	snaps *txn.SnapshotRegistry
}

type commitMark struct {
	lsn      uint64
	resolved bool
}

// gcBaseThreshold is the floor of the automatic-GC trigger: below this
// many versions engine-wide, versions simply linger — that slack is what
// makes recent-history AS OF reads useful between checkpoints. After a
// pass the next one runs when the live versions reach
// max(gcBaseThreshold, 2 × what the pass left), and the release of the
// last snapshot re-arms the trigger at gcBaseThreshold. A pass walks at
// most the live chains and the next waits until at least as many
// versions were created, so GC walks at most about two chains per
// version created, however much history a snapshot pins.
const gcBaseThreshold = 4096

// currentReadLSN returns the horizon a snapshot beginning now pins.
func (db *DB) currentReadLSN() uint64 {
	db.mvcc.mu.Lock()
	v := db.mvcc.visible
	db.mvcc.mu.Unlock()
	if w := uint64(db.wal.CommitVisibleLSN()); w < v {
		return w
	}
	return v
}

// currentReadLSNLocked is currentReadLSN with db.mvcc.mu already held.
func (db *DB) currentReadLSNLocked() uint64 {
	v := db.mvcc.visible
	if w := uint64(db.wal.CommitVisibleLSN()); w < v {
		return w
	}
	return v
}

// mvccBeginCommit appends tx's commit record through the commit gate:
// the append and the outstanding-mark are atomic, so the resolved-prefix
// bookkeeping sees commits in WAL order.
func (db *DB) mvccBeginCommit(rec *wal.Record) (wal.LSN, error) {
	db.mvcc.mu.Lock()
	defer db.mvcc.mu.Unlock()
	lsn, err := db.wal.Append(rec)
	if err != nil {
		return 0, err
	}
	db.mvcc.outstanding = append(db.mvcc.outstanding, commitMark{lsn: uint64(lsn)})
	return lsn, nil
}

// mvccEndCommit marks lsn's version stamps resolved and advances the
// visible horizon past the maximal resolved prefix of outstanding
// commits.
func (db *DB) mvccEndCommit(lsn wal.LSN) {
	m := &db.mvcc
	m.mu.Lock()
	for i := range m.outstanding {
		if m.outstanding[i].lsn == uint64(lsn) {
			m.outstanding[i].resolved = true
			break
		}
	}
	n := 0
	for n < len(m.outstanding) && m.outstanding[n].resolved {
		m.visible = m.outstanding[n].lsn
		n++
	}
	if n > 0 {
		m.outstanding = append(m.outstanding[:0], m.outstanding[n:]...)
	}
	m.mu.Unlock()
}

// BeginSnapshot starts a read-only snapshot transaction pinned at the
// newest readable commit LSN. Snapshot reads follow version chains
// instead of taking locks: the transaction never touches the lock
// manager, so it cannot block or be blocked by writers.
func (db *DB) BeginSnapshot() *Tx {
	db.activeMu.Lock()
	db.active++
	db.activeMu.Unlock()
	tx := &Tx{db: db, id: db.txns.Begin(), snapshot: true}
	db.mvcc.mu.Lock()
	tx.snapID, tx.readLSN = db.mvcc.snaps.Acquire(db.currentReadLSNLocked)
	db.mvcc.mu.Unlock()
	return tx
}

// BeginSnapshotAt starts a snapshot transaction pinned at an explicit
// commit LSN (time-travel, `AS OF <lsn>`). LSNs below the version-GC
// low-water mark are rejected: their history is already pruned (or was
// never rebuilt after a restart). LSNs above the current horizon are
// rejected too — the future is not readable.
func (db *DB) BeginSnapshotAt(lsn uint64) (*Tx, error) {
	db.mvcc.mu.Lock()
	if lsn < db.mvcc.lowWater {
		low := db.mvcc.lowWater
		db.mvcc.mu.Unlock()
		return nil, fmt.Errorf("engine: snapshot too old: AS OF %d is below the version-GC horizon %d", lsn, low)
	}
	if cur := db.currentReadLSNLocked(); lsn > cur {
		db.mvcc.mu.Unlock()
		return nil, fmt.Errorf("engine: AS OF %d is ahead of the current commit horizon %d", lsn, cur)
	}
	id := db.mvcc.snaps.AcquireAt(lsn)
	db.mvcc.mu.Unlock()
	db.activeMu.Lock()
	db.active++
	db.activeMu.Unlock()
	return &Tx{db: db, id: db.txns.Begin(), snapshot: true, snapID: id, readLSN: lsn}, nil
}

// VersionGC runs one version-GC pass: every chain is pruned below the
// oldest active snapshot's read LSN. It returns the number of versions
// reclaimed. Checkpoint and the automatic trigger run the same pass.
// Purely in-memory: GC performs no I/O and cannot perturb fault
// schedules.
func (db *DB) VersionGC() int {
	return db.versionGC(db.tablesSnapshot())
}

// tablesSnapshot copies the table list out from under db.mu so GC can
// hold mvcc.mu without nesting inside the catalog lock.
func (db *DB) tablesSnapshot() []*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t)
	}
	return out
}

// versionGC runs one pass over the given tables' version stores.
func (db *DB) versionGC(tables []*Table) int {
	db.mvcc.mu.Lock()
	defer db.mvcc.mu.Unlock()
	return db.versionGCLocked(tables)
}

// versionGCLocked is the one GC pass; the caller holds mvcc.mu, so the
// watermark read, the pruning and the low-water raise are atomic
// against BeginSnapshotAt's validate-and-register, and an AS OF read
// can never slip under an in-flight prune. The AS OF floor rises only
// as far as history actually dropped (the max pruned anchor commit),
// keeping untouched history time-travel readable. The pass sets the
// next trigger from what it left.
func (db *DB) versionGCLocked(tables []*Table) int {
	m := &db.mvcc
	wm := m.snaps.Watermark(db.currentReadLSNLocked)
	total := 0
	for _, t := range tables {
		reclaimed, floor := t.vstore.GC(wm)
		total += reclaimed
		if floor > m.lowWater {
			m.lowWater = floor
		}
	}
	db.vm.Passes.Inc()
	m.gcNext.Store(max(gcBaseThreshold, 2*db.vm.Live.Load()))
	return total
}

// VersionCount returns the number of tuple versions held engine-wide.
func (db *DB) VersionCount() int64 { return db.vm.Live.Load() }

// maybeVersionGC runs a GC pass when the live versions reached the
// trigger. The check repeats under mvcc.mu, so committers that crossed
// the trigger together run one pass between them.
func (db *DB) maybeVersionGC() {
	m := &db.mvcc
	if db.vm.Live.Load() < m.gcNext.Load() {
		return
	}
	tables := db.tablesSnapshot()
	m.mu.Lock()
	defer m.mu.Unlock()
	if db.vm.Live.Load() >= m.gcNext.Load() {
		db.versionGCLocked(tables)
	}
}

// versionKey encodes a primary-key value as the version store's chain
// key. The encoding is injective per type, and every PK column has one
// fixed type, so two distinct keys of a table never collide.
func versionKey(v catalog.Value) string {
	var buf [8]byte
	switch v.Type() {
	case catalog.TypeInt64, catalog.TypeFloat64, catalog.TypeTime:
		return string(appendFixedKey(buf[:0], v))
	case catalog.TypeString:
		return v.Str()
	case catalog.TypeBytes:
		return string(v.BytesVal())
	case catalog.TypeBool:
		if v.Bool() {
			return "\x01"
		}
		return "\x00"
	default:
		return v.String()
	}
}

// appendFixedKey appends the 8-byte versionKey of an integer, float or
// time value to dst.
func appendFixedKey(dst []byte, v catalog.Value) []byte {
	switch v.Type() {
	case catalog.TypeInt64:
		return binary.BigEndian.AppendUint64(dst, uint64(v.Int()))
	case catalog.TypeFloat64:
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	default:
		return binary.BigEndian.AppendUint64(dst, uint64(v.Time().UnixNano()))
	}
}

// versionKeys returns the versionKey of n non-NULL values of one key
// column. Fixed-width keys are carved out of one string, so a batch's
// keys cost one allocation rather than one each.
func versionKeys(n int, key func(i int) catalog.Value) []string {
	out := make([]string, n)
	if n == 0 {
		return out
	}
	switch key(0).Type() {
	case catalog.TypeInt64, catalog.TypeFloat64, catalog.TypeTime:
	default:
		for i := range out {
			out[i] = versionKey(key(i))
		}
		return out
	}
	var b strings.Builder
	b.Grow(8 * n)
	var buf [8]byte
	for i := 0; i < n; i++ {
		b.Write(appendFixedKey(buf[:0], key(i)))
	}
	s := b.String()
	for i := range out {
		out[i] = s[8*i : 8*i+8]
	}
	return out
}

// stageVersion records one in-flight write in the table's version store
// and remembers the key on the transaction so Commit can stamp it (or
// Abort drop it). Must be called BEFORE the heap mutation — that
// ordering is the reader half's correctness contract (see
// storage.VersionStore); a batch stages every row before it touches
// its first page.
func (tx *Tx) stageVersion(t *Table, key string, base, after []byte) {
	if t.vstore == nil || !t.vstore.Stage(key, uint64(tx.id), base, after) {
		return
	}
	for i := range tx.staged {
		if tx.staged[i].t == t {
			tx.staged[i].keys = append(tx.staged[i].keys, key)
			return
		}
	}
	tx.staged = append(tx.staged, stagedKeys{t: t, keys: []string{key}})
}

// stagedKeys are the keys one transaction has a pending version of in
// one table, each listed once.
type stagedKeys struct {
	t    *Table
	keys []string
}

// resolveStaged stamps every staged version with the commit LSN.
func (tx *Tx) resolveStaged(commit uint64) {
	for _, s := range tx.staged {
		s.t.vstore.Resolve(s.keys, uint64(tx.id), commit)
	}
	tx.staged = nil
}

// dropStaged removes every staged version (abort path).
func (tx *Tx) dropStaged() {
	for _, s := range tx.staged {
		s.t.vstore.DropTxn(s.keys, uint64(tx.id))
	}
	tx.staged = nil
}

// releaseSnapshot returns the snapshot handle. When it was the last
// one, the history it pinned is reclaimable: the trigger re-arms at its
// base, and the next commit past it runs the pass.
func (tx *Tx) releaseSnapshot() {
	if tx.db.mvcc.snaps.Release(tx.snapID) == 0 {
		tx.db.mvcc.gcNext.Store(gcBaseThreshold)
	}
}

// snapshotReadable reports whether a SELECT can read lock-free at its
// snapshot: version chains are keyed by primary key, so tables without
// one read on the locked path.
func snapshotReadable(t *Table) bool { return t.PKCol >= 0 && t.vstore != nil }

// overlay is a snapshot read's view of the version chains at readLSN,
// laid over the rows its plan reads: the plan, fetch and decode of a
// locked read (selectRows), with no lock taken. Consistency comes from
// the version-chain race protocol (storage.VersionStore): writers stage
// before they touch a heap page or an index, and each candidate row
// resolves heap first, chain second, with its page latch still held, so
// a chain entry overrides the bytes it raced with.
//
// The candidates need not be trustworthy. An index can hold
// uncommitted entries and lack entries a writer removed, and a slot can
// die or be reused under the read; each such key has a chain, staged
// before its writer touched the index or the slot. So once the
// candidate keys are known, one sweep of the chains adds the visible
// chain-only rows that satisfy the WHERE, minus the keys the candidates
// surfaced.
type overlay struct {
	t       *Table
	readLSN uint64
	// seen holds the keys surfaced: every key of a PK range's index
	// walk, or each key of another plan's rows as it resolves.
	seen map[string]struct{}
	// keyed marks a PK range. keys and vkeys are then the index keys,
	// and their chain keys, of the candidates still to resolve, in
	// fetch order.
	keyed bool
	keys  []catalog.Value
	vkeys []string
	// extra holds the chain-only rows still to emit, in key order.
	extra []catalog.Tuple
}

// walkPK returns the RIDs of the PK index entries in r, a PK range's
// candidates, and keeps their keys to resolve them by.
func (o *overlay) walkPK(r *keyset.KeyRange) []storage.RID {
	var rids []storage.RID
	o.t.walkPK(r, func(k catalog.Value, rid storage.RID) bool {
		o.keys = append(o.keys, k)
		rids = append(rids, rid)
		return true
	})
	o.keyed = true
	o.vkeys = versionKeys(len(o.keys), func(i int) catalog.Value { return o.keys[i] })
	o.seen = make(map[string]struct{}, len(o.vkeys))
	for _, k := range o.vkeys {
		o.seen[k] = struct{}{}
	}
	return rids
}

// resolve returns the image of a candidate row visible at readLSN, or
// nil. tup is the row as its plan read it, its page latch still held,
// or nil when its slot was dead. A PK range's candidate resolves under
// its index key, whatever its slot holds now; another plan's under the
// key of the row read, the first time that key is read.
func (o *overlay) resolve(tup catalog.Tuple) (catalog.Tuple, error) {
	pk := o.t.PKCol
	var key string
	if o.keyed {
		key = o.vkeys[0]
		if tup != nil && mustCompare(&tup[pk], &o.keys[0]) != 0 {
			tup = nil // the slot was reused after the index walk
		}
		o.keys, o.vkeys = o.keys[1:], o.vkeys[1:]
	} else {
		if tup == nil {
			return nil, nil // a dead slot: its key is left to its chain, and the sweep
		}
		key = versionKey(tup[pk])
		if _, dup := o.seen[key]; dup {
			return nil, nil // a relocation showed the key twice; it is resolved
		}
		o.seen[key] = struct{}{}
	}
	img, have := o.t.vstore.Visible(key, o.readLSN)
	switch {
	case !have:
		// No chain: the heap bytes, or their absence, are committed at or
		// below readLSN.
		return tup, nil
	case img == nil:
		return nil, nil // absent at readLSN
	}
	return catalog.DecodeTuple(o.t.Schema, img)
}

// put emits tup after the chain-only rows that sort before it. Only a
// PK range holds any while its rows are read (it sweeps right after its
// index walk), so its output stays in key order and a LIMIT returns the
// rows the locked plan returns.
func (o *overlay) put(tup catalog.Tuple, emit func(catalog.Tuple) error) error {
	pk := o.t.PKCol
	for len(o.extra) > 0 && mustCompare(&o.extra[0][pk], &tup[pk]) < 0 {
		if err := emit(o.extra[0]); err != nil {
			return err
		}
		o.extra = o.extra[1:]
	}
	return emit(tup)
}

// sweep collects, in key order, the image visible at readLSN of every
// chained key no candidate surfaced, where it satisfies where.
func (o *overlay) sweep(where sqlmini.Expr) error {
	var imgs [][]byte
	o.t.vstore.VisibleSweep(o.readLSN, func(key string, img []byte) {
		if _, ok := o.seen[key]; !ok {
			imgs = append(imgs, img)
		}
	})
	for _, img := range imgs {
		tup, err := catalog.DecodeTuple(o.t.Schema, img)
		if err != nil {
			return err
		}
		ok, err := sqlmini.EvalPredicate(where, o.t.Schema, tup)
		if err != nil {
			return err
		}
		if ok {
			o.extra = append(o.extra, tup)
		}
	}
	pk := o.t.PKCol
	sort.Slice(o.extra, func(i, j int) bool { return mustCompare(&o.extra[i][pk], &o.extra[j][pk]) < 0 })
	return nil
}
