// Package txn provides transaction identity and hierarchical locking
// for the engine. Locking is strict two-phase at two granularities: a
// table level carrying the classic multi-granularity modes (IS, IX, S,
// SIX, X) and a primary-key-range level beneath it, held in a per-table
// interval tree. Transactions acquire locks on demand, hold them until
// commit or abort, and support shared-to-exclusive upgrade. Conflicts
// wait in FIFO order with a timeout, so a deadlock surfaces as
// ErrLockTimeout rather than a hang.
//
// Invariant: a transaction never holds a range lock without also
// holding at least the matching intention mode (IS for shared ranges,
// IX for exclusive ranges) on the table. Whole-table requests therefore
// only consult the table-mode holders; range-versus-range conflicts are
// resolved against the interval tree.
package txn

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/obs"
)

// ID identifies a transaction. IDs are strictly increasing within one
// engine instance.
type ID uint64

// Manager allocates transaction IDs.
type Manager struct {
	next atomic.Uint64
}

// NewManager returns a Manager whose first transaction is firstID.
// Recovery passes the highest txn ID found in the WAL so IDs never
// repeat across restarts.
func NewManager(firstID ID) *Manager {
	m := &Manager{}
	m.next.Store(uint64(firstID))
	return m
}

// Begin allocates the next transaction ID.
func (m *Manager) Begin() ID {
	return ID(m.next.Add(1))
}

// LockMode is a multi-granularity lock mode. Range locks use only
// Shared and Exclusive; the intention modes exist at the table level so
// whole-table requests can detect range activity without scanning the
// interval tree.
type LockMode uint8

// Lock modes, weakest to strongest.
const (
	IntentShared          LockMode = iota + 1 // IS: intends shared range locks
	IntentExclusive                           // IX: intends exclusive range locks
	Shared                                    // S: reads the whole table
	SharedIntentExclusive                     // SIX: S plus IX
	Exclusive                                 // X: owns the whole table
)

func (m LockMode) String() string {
	switch m {
	case IntentShared:
		return "IS"
	case IntentExclusive:
		return "IX"
	case Shared:
		return "S"
	case SharedIntentExclusive:
		return "SIX"
	case Exclusive:
		return "X"
	}
	return fmt.Sprintf("LockMode(%d)", uint8(m))
}

// compat is the standard multi-granularity compatibility matrix,
// indexed by mode value.
var compat = [6][6]bool{
	IntentShared:          {IntentShared: true, IntentExclusive: true, Shared: true, SharedIntentExclusive: true},
	IntentExclusive:       {IntentShared: true, IntentExclusive: true},
	Shared:                {IntentShared: true, Shared: true},
	SharedIntentExclusive: {IntentShared: true},
	Exclusive:             {},
}

// Compatible reports whether two transactions may hold a and b on the
// same table simultaneously.
func Compatible(a, b LockMode) bool {
	if a == 0 || b == 0 {
		return true
	}
	return compat[a][b]
}

// covers reports whether holding held makes a request for want
// redundant. This is the lattice order, not numeric order: S does not
// cover IX and IX does not cover S.
func covers(held, want LockMode) bool {
	if held == want {
		return held != 0
	}
	switch held {
	case Exclusive:
		return want != 0
	case SharedIntentExclusive:
		return want == IntentShared || want == IntentExclusive || want == Shared
	case Shared:
		return want == IntentShared
	case IntentExclusive:
		return want == IntentShared
	}
	return false
}

// lub is the least mode covering both a and b. The only pair with a
// strictly greater join than either side is {S, IX} -> SIX.
func lub(a, b LockMode) LockMode {
	switch {
	case a == 0:
		return b
	case covers(a, b):
		return a
	case covers(b, a):
		return b
	default:
		return SharedIntentExclusive
	}
}

// intentFor maps a range mode to the table intention it requires.
func intentFor(mode LockMode) LockMode {
	if mode == Exclusive {
		return IntentExclusive
	}
	return IntentShared
}

// tableModeCoversRange reports whether a held table mode already
// implies a range lock of the given mode, making the range acquisition
// a no-op.
func tableModeCoversRange(held, mode LockMode) bool {
	if mode == Exclusive {
		return held == Exclusive
	}
	return held == Shared || held == SharedIntentExclusive || held == Exclusive
}

// ErrLockTimeout reports a lock wait that exceeded the manager's
// timeout. The probe resolves waits-for cycles long before it, so a
// timeout is plain contention.
var ErrLockTimeout = errors.New("txn: lock wait timeout (possible deadlock)")

// ErrDeadlock reports a waits-for cycle detected by the in-wait probe
// and resolved by aborting the probing transaction, milliseconds after
// the cycle formed instead of at the lock deadline. It wraps
// ErrLockTimeout so every existing "deadlock surfaced, abort and maybe
// retry" consumer handles it unchanged.
var ErrDeadlock = fmt.Errorf("%w: waits-for cycle detected", ErrLockTimeout)

// escalateThreshold is the number of live range locks one transaction
// may hold on one table before the manager tries to trade them for a
// single table X lock. Escalation is opportunistic — it is skipped when
// other holders or earlier waiters are in the way — so it bounds lock
// bookkeeping for bulk writers without ever blocking them.
const escalateThreshold = 1024

// TableLockStats is a point-in-time snapshot of one table's lock
// counters. The live counters themselves are obs registry series
// (txn_table_* with a table label); this struct survives as the
// aggregation currency of TableStats and the bench harness.
type TableLockStats struct {
	Acquires       uint64        // granted requests (table and range)
	RangeAcquires  uint64        // granted range requests
	ReadAcquires   uint64        // granted requests in a read mode (IS, S, shared ranges)
	Waits          uint64        // requests that blocked at least once
	WaitTime       time.Duration // total time requests spent blocked
	WriteWaits     uint64        // blocked requests in a write mode (IX, SIX, X)
	WriteWaitTime  time.Duration // blocked time of write-mode requests
	Upgrades       uint64        // held-mode upgrades (table or range)
	TableFallbacks uint64        // DML that fell back to a table lock
	Escalations    uint64        // range sets escalated to table X
}

func (s *TableLockStats) add(o TableLockStats) {
	s.Acquires += o.Acquires
	s.RangeAcquires += o.RangeAcquires
	s.ReadAcquires += o.ReadAcquires
	s.Waits += o.Waits
	s.WaitTime += o.WaitTime
	s.WriteWaits += o.WriteWaits
	s.WriteWaitTime += o.WriteWaitTime
	s.Upgrades += o.Upgrades
	s.TableFallbacks += o.TableFallbacks
	s.Escalations += o.Escalations
}

// isWriteMode classifies a requested mode for wait accounting: writer
// waits (appliers blocking on each other) and reader waits (scans
// blocked behind writers) tell very different performance stories.
func isWriteMode(m LockMode) bool {
	return m == IntentExclusive || m == SharedIntentExclusive || m == Exclusive
}

// Add accumulates o into s (for cross-table totals).
func (s *TableLockStats) Add(o TableLockStats) { s.add(o) }

// LockManager grants table and key-range locks to transactions.
type LockManager struct {
	mu      sync.Mutex
	cond    *sync.Cond
	timeout time.Duration
	tables  map[string]*tableLock

	// Metrics live on an obs registry (a private one unless injected via
	// NewLockManagerObs). The counters are atomic, so incrementing them
	// under lm.mu adds no synchronization beyond what the grant path
	// already holds, and snapshots never race resets.
	reg                     *obs.Registry
	labels                  []obs.Label
	waits, grants, timeouts *obs.Counter
	probeDeadlocks          *obs.Counter
}

// tableLockMetrics are one table's registry-backed counters, resolved
// once when the table is first seen so the grant path only touches
// atomic handles.
type tableLockMetrics struct {
	acquires       *obs.Counter
	rangeAcquires  *obs.Counter
	readAcquires   *obs.Counter
	waits          *obs.Counter
	waitNanos      *obs.Counter
	writeWaits     *obs.Counter
	writeWaitNanos *obs.Counter
	upgrades       *obs.Counter
	tableFallbacks *obs.Counter
	escalations    *obs.Counter
}

func newTableLockMetrics(reg *obs.Registry, labels []obs.Label, table string) *tableLockMetrics {
	ls := append(append([]obs.Label(nil), labels...), obs.L("table", table))
	return &tableLockMetrics{
		acquires:       reg.Counter("txn_table_lock_acquires_total", ls...),
		rangeAcquires:  reg.Counter("txn_table_range_acquires_total", ls...),
		readAcquires:   reg.Counter("txn_table_read_acquires_total", ls...),
		waits:          reg.Counter("txn_table_lock_waits_total", ls...),
		waitNanos:      reg.Counter("txn_table_lock_wait_nanos_total", ls...),
		writeWaits:     reg.Counter("txn_table_write_waits_total", ls...),
		writeWaitNanos: reg.Counter("txn_table_write_wait_nanos_total", ls...),
		upgrades:       reg.Counter("txn_table_lock_upgrades_total", ls...),
		tableFallbacks: reg.Counter("txn_table_lock_fallbacks_total", ls...),
		escalations:    reg.Counter("txn_table_lock_escalations_total", ls...),
	}
}

func (m *tableLockMetrics) snapshot() TableLockStats {
	return TableLockStats{
		Acquires:       m.acquires.Value(),
		RangeAcquires:  m.rangeAcquires.Value(),
		ReadAcquires:   m.readAcquires.Value(),
		Waits:          m.waits.Value(),
		WaitTime:       time.Duration(m.waitNanos.Value()),
		WriteWaits:     m.writeWaits.Value(),
		WriteWaitTime:  time.Duration(m.writeWaitNanos.Value()),
		Upgrades:       m.upgrades.Value(),
		TableFallbacks: m.tableFallbacks.Value(),
		Escalations:    m.escalations.Value(),
	}
}

type tableLock struct {
	name    string
	holders map[ID]LockMode // current table-granularity grants
	ranges  rangeTree       // granted range locks
	nranges map[ID]int      // live range-lock count per holder
	// queue holds waiting requests in arrival order. Grants respect the
	// queue: a request may only jump ahead of earlier waiters it does
	// not conflict with — or waiters that are themselves blocked by the
	// requester's holdings, which it must bypass to avoid deadlocking
	// on itself — so neither readers nor writers starve.
	queue   []waiter
	nextSeq uint64
	m       *tableLockMetrics
}

// waiter is one blocked request: a table-mode request, or (isRange) a
// single key-range request.
type waiter struct {
	seq     uint64
	tx      ID
	mode    LockMode
	isRange bool
	r       keyset.KeyRange
}

// removeWaiter deletes the queue entry with the given seq.
func (tl *tableLock) removeWaiter(seq uint64) {
	for i, w := range tl.queue {
		if w.seq == seq {
			tl.queue = append(tl.queue[:i], tl.queue[i+1:]...)
			return
		}
	}
}

// wouldConflict reports whether granting both a and b to different
// transactions is impossible. Range requests are represented at the
// table level by the intention mode they imply.
func wouldConflict(a, b waiter) bool {
	switch {
	case a.isRange && b.isRange:
		return (a.mode == Exclusive || b.mode == Exclusive) && a.r.Intersects(b.r)
	case a.isRange:
		return !Compatible(b.mode, intentFor(a.mode))
	case b.isRange:
		return !Compatible(a.mode, intentFor(b.mode))
	default:
		return !Compatible(a.mode, b.mode)
	}
}

// blockedByLocked reports whether waiter w cannot be granted right now
// because of locks tx itself holds. A requester must bypass such
// waiters in the FIFO check: waiting behind a request that is waiting
// on us is a self-deadlock.
func (tl *tableLock) blockedByLocked(tx ID, w waiter) bool {
	held := tl.holders[tx]
	if w.isRange {
		if held != 0 && !Compatible(intentFor(w.mode), held) {
			return true
		}
		blocked := false
		tl.ranges.overlapping(w.r, func(n *rangeNode) bool {
			if n.tx == tx && (n.mode == Exclusive || w.mode == Exclusive) {
				blocked = true
				return false
			}
			return true
		})
		return blocked
	}
	// A table-mode request sees tx's range locks through tx's intention
	// mode, which held carries by the package invariant.
	return held != 0 && !Compatible(w.mode, held)
}

// conflictsWithEarlierLocked reports whether granting me (queued at
// seq) would unfairly bypass an earlier waiter.
func (tl *tableLock) conflictsWithEarlierLocked(seq uint64, me waiter) bool {
	for _, w := range tl.queue {
		if w.seq >= seq || w.tx == me.tx {
			continue
		}
		if wouldConflict(w, me) && !tl.blockedByLocked(me.tx, w) {
			return true
		}
	}
	return false
}

// NewLockManager creates a lock manager with the given wait timeout
// and a private metrics registry. A zero timeout selects a generous
// default.
func NewLockManager(timeout time.Duration) *LockManager {
	return NewLockManagerObs(timeout, obs.NewRegistry())
}

// NewLockManagerObs creates a lock manager registering its metrics on
// reg with the given base labels (e.g. a db label distinguishing source
// from warehouse when both live in one process). reg nil selects a
// private registry.
func NewLockManagerObs(timeout time.Duration, reg *obs.Registry, labels ...obs.Label) *LockManager {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	lm := &LockManager{
		timeout:  timeout,
		tables:   make(map[string]*tableLock),
		reg:      reg,
		labels:   labels,
		waits:    reg.Counter("txn_lock_waits_total", labels...),
		grants:   reg.Counter("txn_lock_grants_total", labels...),
		timeouts: reg.Counter("txn_lock_timeouts_total", labels...),
		// Deadlocks resolved by the in-wait probe (deadlockProbe).
		probeDeadlocks: reg.Counter("txn_lock_probe_deadlocks_total", labels...),
	}
	lm.cond = sync.NewCond(&lm.mu)
	return lm
}

func (lm *LockManager) tableLocked(table string) *tableLock {
	tl := lm.tables[table]
	if tl == nil {
		tl = &tableLock{
			name:    table,
			holders: make(map[ID]LockMode),
			nranges: make(map[ID]int),
			m:       newTableLockMetrics(lm.reg, lm.labels, table),
		}
		lm.tables[table] = tl
	}
	return tl
}

// Acquire grants tx a table-granularity lock on table in the requested
// mode, blocking while conflicting locks are held by other
// transactions. Re-acquiring a covered mode is a no-op; upgrades
// (including S->SIX and S->X) wait for other holders to drain.
func (lm *LockManager) Acquire(tx ID, table string, mode LockMode) error {
	deadline := time.Now().Add(lm.timeout)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.acquireTableLocked(lm.tableLocked(table), tx, mode, deadline)
}

func (lm *LockManager) acquireTableLocked(tl *tableLock, tx ID, mode LockMode, deadline time.Time) error {
	if covers(tl.holders[tx], mode) {
		return nil
	}
	tl.nextSeq++
	seq := tl.nextSeq
	queued := false
	var blockedAt, nextProbe time.Time
	defer func() {
		if queued {
			tl.removeWaiter(seq)
			// Our departure may unblock requests queued behind us.
			lm.cond.Broadcast()
		}
		if !blockedAt.IsZero() {
			d := time.Since(blockedAt)
			tl.m.waitNanos.AddDuration(d)
			if isWriteMode(mode) {
				tl.m.writeWaitNanos.AddDuration(d)
			}
		}
	}()
	for {
		held := tl.holders[tx]
		if covers(held, mode) {
			return nil
		}
		target := lub(held, mode)
		if lm.tableCompatLocked(tl, tx, target) &&
			!tl.conflictsWithEarlierLocked(seq, waiter{tx: tx, mode: target}) {
			tl.holders[tx] = target
			tl.m.acquires.Inc()
			if !isWriteMode(mode) {
				tl.m.readAcquires.Inc()
			}
			if held != 0 {
				tl.m.upgrades.Inc()
			}
			lm.grants.Inc()
			return nil
		}
		if !queued {
			queued = true
			tl.queue = append(tl.queue, waiter{seq: seq, tx: tx, mode: target})
		}
		if blockedAt.IsZero() {
			blockedAt = time.Now()
			tl.m.waits.Inc()
			if isWriteMode(mode) {
				tl.m.writeWaits.Inc()
			}
			lm.waits.Inc()
		}
		timedOut, deadlocked := lm.waitStepLocked(tx, deadline, &nextProbe)
		if deadlocked {
			return fmt.Errorf("%w: txn %d wants %s on %q", ErrDeadlock, tx, mode, tl.name)
		}
		if timedOut {
			lm.timeouts.Inc()
			return fmt.Errorf("%w: txn %d wants %s on %q", ErrLockTimeout, tx, mode, tl.name)
		}
	}
}

// tableCompatLocked reports whether tx may take mode on tl given the
// other holders. Range locks held by others are represented by their
// intention modes (package invariant), so the holders map is
// authoritative.
func (lm *LockManager) tableCompatLocked(tl *tableLock, tx ID, mode LockMode) bool {
	for holder, hmode := range tl.holders {
		if holder == tx {
			continue
		}
		if !Compatible(mode, hmode) {
			return false
		}
	}
	return true
}

// AcquireRanges grants tx locks on the given key ranges of table, in
// Shared or Exclusive mode, taking the matching intention lock on the
// table first. Ranges are acquired in the canonical sorted order (see
// keyset.SortRanges) regardless of input order. The call is
// all-or-nothing in outcome but not in effect: on timeout, ranges
// granted so far stay held until ReleaseAll, exactly like any other
// lock taken by a transaction that goes on to abort.
//
// Two exclusive ranges conflict when they can share a key; shared
// ranges coexist. A transaction's own overlapping ranges never
// conflict, and a request contained in an own held range of the same or
// stronger mode — or covered by the held table mode — is a no-op.
func (lm *LockManager) AcquireRanges(tx ID, table string, mode LockMode, ranges []keyset.KeyRange) error {
	if mode != Shared && mode != Exclusive {
		return fmt.Errorf("txn: range locks must be S or X, not %s", mode)
	}
	if len(ranges) == 0 {
		return nil
	}
	// A covering table mode, or own ranges that already contain every
	// requested one, make the request a no-op: notice it before paying
	// for the copy, the sort and the clock read. View maintenance under
	// a pre-declared whole-table X lock asks this per row, and every
	// statement of a warehouse group under its pre-declared ranges.
	lm.mu.Lock()
	if tl := lm.tables[table]; tl != nil && tl.holdsRangesLocked(tx, mode, ranges) {
		lm.mu.Unlock()
		return nil
	}
	lm.mu.Unlock()
	sorted := ranges
	if len(ranges) > 1 {
		sorted = append([]keyset.KeyRange(nil), ranges...)
		keyset.SortRanges(sorted)
	}
	deadline := time.Now().Add(lm.timeout)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	tl := lm.tableLocked(table)
	if err := lm.acquireTableLocked(tl, tx, intentFor(mode), deadline); err != nil {
		return err
	}
	for _, r := range sorted {
		if err := lm.acquireRangeLocked(tl, tx, mode, r, deadline); err != nil {
			return err
		}
	}
	return nil
}

// holdsRangesLocked reports whether tx holds mode or X over every range
// in ranges: through a covering table mode, or each inside one of its
// own granted ranges.
func (tl *tableLock) holdsRangesLocked(tx ID, mode LockMode, ranges []keyset.KeyRange) bool {
	if tableModeCoversRange(tl.holders[tx], mode) {
		return true
	}
	for _, r := range ranges {
		if !tl.ownRangeCoversLocked(tx, mode, r) {
			return false
		}
	}
	return true
}

func (lm *LockManager) acquireRangeLocked(tl *tableLock, tx ID, mode LockMode, r keyset.KeyRange, deadline time.Time) error {
	tl.nextSeq++
	seq := tl.nextSeq
	queued := false
	var blockedAt, nextProbe time.Time
	defer func() {
		if queued {
			tl.removeWaiter(seq)
			lm.cond.Broadcast()
		}
		if !blockedAt.IsZero() {
			d := time.Since(blockedAt)
			tl.m.waitNanos.AddDuration(d)
			if isWriteMode(mode) {
				tl.m.writeWaitNanos.AddDuration(d)
			}
		}
	}()
	for {
		if tableModeCoversRange(tl.holders[tx], mode) {
			return nil
		}
		conflict, covered, ownWeaker := false, false, false
		tl.ranges.overlapping(r, func(n *rangeNode) bool {
			if n.tx == tx {
				if (n.mode == mode || n.mode == Exclusive) && n.r.Contains(r) {
					covered = true
					return false
				}
				ownWeaker = true
				return true
			}
			if mode == Exclusive || n.mode == Exclusive {
				conflict = true
			}
			return true
		})
		if covered {
			return nil
		}
		if !conflict && !tl.conflictsWithEarlierLocked(seq, waiter{tx: tx, mode: mode, isRange: true, r: r}) {
			tl.ranges.insert(tx, mode, r)
			tl.nranges[tx]++
			tl.m.acquires.Inc()
			tl.m.rangeAcquires.Inc()
			if !isWriteMode(mode) {
				tl.m.readAcquires.Inc()
			}
			if ownWeaker && mode == Exclusive {
				tl.m.upgrades.Inc()
			}
			lm.grants.Inc()
			if tl.nranges[tx] >= escalateThreshold {
				lm.tryEscalateLocked(tl, tx)
			}
			return nil
		}
		if !queued {
			queued = true
			tl.queue = append(tl.queue, waiter{seq: seq, tx: tx, mode: mode, isRange: true, r: r})
		}
		if blockedAt.IsZero() {
			blockedAt = time.Now()
			tl.m.waits.Inc()
			if isWriteMode(mode) {
				tl.m.writeWaits.Inc()
			}
			lm.waits.Inc()
		}
		timedOut, deadlocked := lm.waitStepLocked(tx, deadline, &nextProbe)
		if deadlocked {
			return fmt.Errorf("%w: txn %d wants %s on %q range %s", ErrDeadlock, tx, mode, tl.name, r)
		}
		if timedOut {
			lm.timeouts.Inc()
			return fmt.Errorf("%w: txn %d wants %s on %q range %s", ErrLockTimeout, tx, mode, tl.name, r)
		}
	}
}

// tryEscalateLocked opportunistically trades tx's range set on tl for a
// single table X lock. It never blocks and never jumps waiters that
// are not already blocked by tx: if the X grant isn't immediately fair
// and compatible, the ranges stay as they are.
func (lm *LockManager) tryEscalateLocked(tl *tableLock, tx ID) {
	if tl.holders[tx] == Exclusive {
		return
	}
	if !lm.tableCompatLocked(tl, tx, Exclusive) {
		return
	}
	if tl.conflictsWithEarlierLocked(math.MaxUint64, waiter{tx: tx, mode: Exclusive}) {
		return
	}
	tl.holders[tx] = Exclusive
	tl.m.escalations.Inc()
	if tl.nranges[tx] > 0 {
		tl.ranges.removeTx(tx)
		delete(tl.nranges, tx)
	}
}

// waitStepLocked performs one bounded wait for a blocked request from
// tx. It wakes at the next grant broadcast, the probe tick, or the
// final deadline, whichever comes first. On a probe tick it runs the
// waits-for cycle detector: deadlocked=true means tx sits on a cycle
// and must abort now (the probe's victim), counted in
// txn_lock_probe_deadlocks_total. timedOut=true means the deadline
// passed under plain contention.
func (lm *LockManager) waitStepLocked(tx ID, deadline time.Time, nextProbe *time.Time) (timedOut, deadlocked bool) {
	if nextProbe.IsZero() {
		*nextProbe = time.Now().Add(deadlockProbe)
	}
	wake := deadline
	if nextProbe.Before(wake) {
		wake = *nextProbe
	}
	if !lm.waitUntilLocked(wake) {
		if wake.Before(deadline) {
			// Probe tick: still blocked at the interval boundary. The
			// request is still queued, so its own waits-for edges are
			// visible to the detector.
			if lm.inCycleLocked(tx) {
				lm.probeDeadlocks.Inc()
				return false, true
			}
			*nextProbe = time.Now().Add(deadlockProbe)
			return false, false
		}
		return true, false
	}
	return false, false
}

// waitUntilLocked waits on the manager condition until signaled or the
// deadline passes; returns false on timeout. The condition variable has
// no timed wait, so a timer goroutine broadcasts at the deadline.
func (lm *LockManager) waitUntilLocked(deadline time.Time) bool {
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return false
	}
	timer := time.AfterFunc(remaining, func() {
		lm.mu.Lock()
		lm.cond.Broadcast()
		lm.mu.Unlock()
	})
	lm.cond.Wait() // releases lm.mu while waiting
	timer.Stop()
	return time.Now().Before(deadline)
}

// ReleaseAll drops every lock held by tx — table modes and ranges —
// and wakes waiters.
func (lm *LockManager) ReleaseAll(tx ID) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	// Entries are never removed from lm.tables: waiters hold pointers to
	// them across Wait, and the table population is bounded by the
	// schema anyway.
	for _, tl := range lm.tables {
		delete(tl.holders, tx)
		if tl.nranges[tx] > 0 {
			tl.ranges.removeTx(tx)
			delete(tl.nranges, tx)
		}
	}
	lm.cond.Broadcast()
}

// NoteTableFallback counts a statement whose footprint analysis failed,
// forcing a whole-table lock where ranges were possible in principle.
func (lm *LockManager) NoteTableFallback(table string) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.tableLocked(table).m.tableFallbacks.Inc()
}

// Holding reports the table-granularity mode tx holds on table (zero if
// none; a transaction holding only range locks reports its intention
// mode).
func (lm *LockManager) Holding(tx ID, table string) LockMode {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if tl := lm.tables[table]; tl != nil {
		return tl.holders[tx]
	}
	return 0
}

// CoversKeys reports whether tx already holds mode (or X) on the n
// primary keys key(0..n-1) of table — through a covering table mode or
// each key inside one of its own granted ranges — so that asking for
// them is a no-op. A caller about to build ranges for the keys checks
// this first: under a pre-declared lock plan every statement's keys are
// held. A NULL key is never covered. key runs under the manager's
// mutex, so it must only read its caller's keys.
func (lm *LockManager) CoversKeys(tx ID, table string, mode LockMode, n int, key func(i int) catalog.Value) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	tl := lm.tables[table]
	if tl == nil {
		return false
	}
	if tableModeCoversRange(tl.holders[tx], mode) {
		return true
	}
	for i := 0; i < n; i++ {
		k := key(i)
		if k.IsNull() || !tl.ownRangeCoversLocked(tx, mode, keyset.Point(k)) {
			return false
		}
	}
	return true
}

// ownRangeCoversLocked reports whether one of tx's own granted ranges in
// mode or X contains r.
func (tl *tableLock) ownRangeCoversLocked(tx ID, mode LockMode, r keyset.KeyRange) bool {
	if tl.nranges[tx] == 0 {
		return false
	}
	covered := false
	tl.ranges.overlapping(r, func(n *rangeNode) bool {
		covered = n.tx == tx && (n.mode == mode || n.mode == Exclusive) && n.r.Contains(r)
		return !covered
	})
	return covered
}

// HoldingRange reports the strongest protection tx has over every key
// in r on table: Exclusive or Shared, from either a covering table mode
// or a single containing range lock; zero when some key in r is
// unprotected.
func (lm *LockManager) HoldingRange(tx ID, table string, r keyset.KeyRange) LockMode {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	tl := lm.tables[table]
	if tl == nil {
		return 0
	}
	held := tl.holders[tx]
	if tableModeCoversRange(held, Exclusive) {
		return Exclusive
	}
	var best LockMode
	tl.ranges.overlapping(r, func(n *rangeNode) bool {
		if n.tx == tx && n.r.Contains(r) && n.mode > best {
			best = n.mode
		}
		return best != Exclusive
	})
	if best == 0 && tableModeCoversRange(held, Shared) {
		return Shared
	}
	return best
}

// LockStats is a snapshot of manager-wide lock counters.
// ProbeDeadlocks counts deadlocks the in-wait probe resolved (they never
// reach Timeouts).
type LockStats struct {
	Waits, Grants, Timeouts, ProbeDeadlocks uint64
}

// Stats returns manager-wide lock counters.
func (lm *LockManager) Stats() LockStats {
	return LockStats{
		Waits:          lm.waits.Value(),
		Grants:         lm.grants.Value(),
		Timeouts:       lm.timeouts.Value(),
		ProbeDeadlocks: lm.probeDeadlocks.Value(),
	}
}

// TableStats snapshots the per-table counters for every table the
// manager has seen.
func (lm *LockManager) TableStats() map[string]TableLockStats {
	lm.mu.Lock()
	metrics := make(map[string]*tableLockMetrics, len(lm.tables))
	for name, tl := range lm.tables {
		metrics[name] = tl.m
	}
	lm.mu.Unlock()
	out := make(map[string]TableLockStats, len(metrics))
	for name, m := range metrics {
		out[name] = m.snapshot()
	}
	return out
}
