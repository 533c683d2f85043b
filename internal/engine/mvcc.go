package engine

import (
	"encoding/binary"
	"errors"
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

// snapshotReadable reports whether a SELECT can run on the lock-free
// snapshot path: version chains are keyed by primary key, so tables
// without one fall back to the shared-lock scan.
func snapshotReadable(t *Table) bool { return t.PKCol >= 0 && t.vstore != nil }

// iterateSnapshot streams the rows of t visible at tx.readLSN, applying
// where and emitting via emit. It takes no locks: consistency comes from
// the version-chain race protocol (writers stage before mutating the
// heap; this reader reads heap bytes under the page latch first and
// consults the chain second, so a chain entry always overrides bytes it
// raced with).
//
// Exact PK-range plans resolve through the PK index like the locked
// path; everything else — including secondary-index plans, whose trees
// reflect uncommitted writes — runs as a full heap scan with the
// predicate evaluated on the visible image. Rows surface in key order
// for range plans and heap order (plus a key-ordered tail of
// chain-only rows) for scans.
func (db *DB) iterateSnapshot(tx *Tx, t *Table, where sqlmini.Expr, emit func(catalog.Tuple) error) error {
	if r, ok := pkRangePlan(t, where); ok {
		return db.snapshotRange(tx, t, &r, emit)
	}
	return db.snapshotScan(tx, t, where, emit)
}

// snapshotScan is the full-table snapshot read: one heap pass with
// chain-wins visibility, then a sweep of chains whose keys the heap pass
// never surfaced (uncommitted deletes, relocations that hopped behind
// the scan cursor).
func (db *DB) snapshotScan(tx *Tx, t *Table, where sqlmini.Expr, emit func(catalog.Tuple) error) error {
	readLSN := tx.readLSN
	seen := make(map[string]struct{})
	stopped := false
	err := t.heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		tup, err := catalog.DecodeTuple(t.Schema, rec)
		if err != nil {
			return false, err
		}
		key := versionKey(tup[t.PKCol])
		if _, dup := seen[key]; dup {
			// A concurrent relocation can surface one key at two RIDs
			// within a single scan; its visible image was already emitted.
			return true, nil
		}
		seen[key] = struct{}{}
		// Heap bytes were read first (we are under the page latch); the
		// chain, consulted second, wins if present.
		if vtup, have := t.vstore.Visible(key, readLSN); have {
			if vtup == nil {
				return true, nil // absent at readLSN
			}
			if tup, err = catalog.DecodeTuple(t.Schema, vtup); err != nil {
				return false, err
			}
		}
		ok, err := sqlmini.EvalPredicate(where, t.Schema, tup)
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		if err := emit(tup); err != nil {
			if errors.Is(err, errStopIteration) {
				stopped = true
				return false, nil
			}
			return false, err
		}
		return true, nil
	})
	if err != nil || stopped {
		return err
	}
	// Chains can hold visible rows the heap pass missed entirely: a key
	// whose slot is tombstoned by an uncommitted delete, or one whose
	// relocation jumped behind the cursor mid-scan.
	extra, err := db.sweepUnseen(t, readLSN, seen)
	if err != nil {
		return err
	}
	for _, tup := range extra {
		ok, err := sqlmini.EvalPredicate(where, t.Schema, tup)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := emit(tup); err != nil {
			if errors.Is(err, errStopIteration) {
				return nil
			}
			return err
		}
	}
	return nil
}

// sweepUnseen decodes every chained key with a visible image that the
// heap pass did not surface, returned in ascending PK order for
// deterministic output.
func (db *DB) sweepUnseen(t *Table, readLSN uint64, seen map[string]struct{}) ([]catalog.Tuple, error) {
	var raw [][]byte
	t.vstore.VisibleSweep(readLSN, func(key string, vtup []byte) {
		if _, dup := seen[key]; dup {
			return
		}
		raw = append(raw, vtup)
	})
	out := make([]catalog.Tuple, 0, len(raw))
	for _, enc := range raw {
		tup, err := catalog.DecodeTuple(t.Schema, enc)
		if err != nil {
			return nil, err
		}
		out = append(out, tup)
	}
	sort.Slice(out, func(i, j int) bool {
		return mustCompare(&out[i][t.PKCol], &out[j][t.PKCol]) < 0
	})
	return out, nil
}

// snapshotRange is the snapshot read for an exact PK-range plan: no IS
// lock, no shared range lock. Candidate keys come from two sources —
// the PK index (point-in-time, may include uncommitted inserts and lack
// uncommitted deletes) and the in-range chains (which carry exactly the
// keys whose index entries are untrustworthy) — and each candidate
// resolves through heap-then-chain visibility.
func (db *DB) snapshotRange(tx *Tx, t *Table, r *keyset.KeyRange, emit func(catalog.Tuple) error) error {
	readLSN := tx.readLSN
	type cand struct {
		key    catalog.Value
		keyStr string
		rid    storage.RID
		hasRID bool
	}
	var cands []cand
	have := make(map[string]int)
	t.walkPK(r, func(k catalog.Value, rid storage.RID) bool {
		ks := versionKey(k)
		have[ks] = len(cands)
		cands = append(cands, cand{key: k, keyStr: ks, rid: rid, hasRID: true})
		return true
	})
	// In-range chained keys missing from the index: visible rows whose
	// index entries an uncommitted (or post-snapshot) delete removed.
	var chained []catalog.Tuple
	t.vstore.VisibleSweep(readLSN, func(key string, vtup []byte) {
		if _, ok := have[key]; ok {
			return
		}
		tup, err := catalog.DecodeTuple(t.Schema, vtup)
		if err != nil {
			return // undecodable chain image; nothing to surface
		}
		have[key] = -1
		chained = append(chained, tup)
	})
	for _, tup := range chained {
		k := tup[t.PKCol]
		if !r.Contains(keyset.Point(k)) {
			continue
		}
		cands = append(cands, cand{key: k, keyStr: versionKey(k)})
	}
	sort.Slice(cands, func(i, j int) bool { return mustCompare(&cands[i].key, &cands[j].key) < 0 })
	for _, c := range cands {
		// Heap first, chain second — same race contract as the scan path.
		var heapTup catalog.Tuple
		if c.hasRID {
			if rec, err := t.heap.Get(c.rid); err == nil {
				if tup, derr := catalog.DecodeTuple(t.Schema, rec); derr == nil && versionKey(tup[t.PKCol]) == c.keyStr {
					heapTup = tup
				}
			}
			// A Get error or key mismatch means the slot died or was
			// reused after the index read; the chain decides then.
		}
		var out catalog.Tuple
		if vtup, haveChain := t.vstore.Visible(c.keyStr, readLSN); haveChain {
			if vtup == nil {
				continue // absent at readLSN
			}
			tup, err := catalog.DecodeTuple(t.Schema, vtup)
			if err != nil {
				return err
			}
			out = tup
		} else if heapTup != nil {
			out = heapTup
		} else {
			// No chain and no committed heap bytes: the key's deletion is
			// fully settled below the GC watermark, hence visible to us.
			continue
		}
		if err := emit(out); err != nil {
			if errors.Is(err, errStopIteration) {
				return nil
			}
			return err
		}
	}
	return nil
}
