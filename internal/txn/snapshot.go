package txn

import (
	"sync"
	"time"
)

// SnapshotRegistry tracks the read horizons of live snapshot
// transactions so version GC never prunes a version some active
// snapshot still needs, and so the oldest snapshot's age is observable.
//
// The registry's mutex is the linchpin of the watermark argument:
// a snapshot's read LSN is pinned by a caller-supplied function invoked
// UNDER the registry lock (Acquire), and the GC watermark is computed
// under the same lock (Watermark). Both the engine's resolved-commit
// horizon and the WAL's durability mark are monotone, so any snapshot
// registered after a Watermark call pins a read LSN >= that watermark —
// there is no window where a new snapshot can slip under a concurrent
// GC pass.
type SnapshotRegistry struct {
	mu     sync.Mutex
	nextID uint64
	active map[uint64]snapEntry
	now    func() time.Time
}

type snapEntry struct {
	lsn   uint64
	start time.Time
}

// NewSnapshotRegistry creates an empty registry. now supplies the clock
// for snapshot ages; nil means time.Now.
func NewSnapshotRegistry(now func() time.Time) *SnapshotRegistry {
	if now == nil {
		now = time.Now
	}
	return &SnapshotRegistry{active: make(map[uint64]snapEntry), now: now}
}

// Acquire registers a new snapshot whose read LSN is computed by pin()
// under the registry lock, and returns its handle and the pinned LSN.
func (r *SnapshotRegistry) Acquire(pin func() uint64) (id, lsn uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.registerLocked(pin())
}

// AcquireAt registers a snapshot at a caller-chosen read LSN
// (time-travel reads). The caller has already validated lsn against the
// GC low-water mark under its own synchronization.
func (r *SnapshotRegistry) AcquireAt(lsn uint64) (id uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, _ = r.registerLocked(lsn)
	return id
}

func (r *SnapshotRegistry) registerLocked(lsn uint64) (uint64, uint64) {
	r.nextID++
	r.active[r.nextID] = snapEntry{lsn: lsn, start: r.now()}
	return r.nextID, lsn
}

// Release drops a snapshot handle and returns the number of snapshots
// still active. Unknown handles are ignored.
func (r *SnapshotRegistry) Release(id uint64) (active int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.active, id)
	return len(r.active)
}

// Watermark returns the version-GC horizon: the minimum read LSN over
// active snapshots, or cur() when none are active. cur is evaluated
// under the registry lock, making the result safe against concurrent
// Acquire calls (see type comment).
func (r *SnapshotRegistry) Watermark(cur func() uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.active) == 0 {
		return cur()
	}
	min := uint64(0)
	first := true
	for _, e := range r.active {
		if first || e.lsn < min {
			min, first = e.lsn, false
		}
	}
	return min
}

// OldestAge returns the age of the longest-running live snapshot (zero
// when none are active) — the mvcc_oldest_snapshot_age_seconds gauge.
func (r *SnapshotRegistry) OldestAge() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var oldest time.Time
	for _, e := range r.active {
		if oldest.IsZero() || e.start.Before(oldest) {
			oldest = e.start
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return r.now().Sub(oldest)
}
