package txn

import "time"

// Wait-for-graph analysis for the in-wait deadlock probe. A blocked
// request wakes every deadlockProbe and runs inCycleLocked on its own
// transaction; a waiter that sits on a cycle aborts with ErrDeadlock.
// The detector reconstructs the waits-for edges from the live queue and
// holder state. The lock deadline stays as the bound on plain
// contention — a long reader, a slow commit — and a cycle never reaches
// it: the probe catches one a tick after it forms.

// deadlockProbe is the waits-for probe interval during blocked lock
// waits.
const deadlockProbe = 50 * time.Millisecond

// blockersLocked collects the transactions that prevent waiter w from
// being granted on tl right now: conflicting holders (table modes, and
// overlapping ranges for range requests) plus earlier queued waiters w
// may not fairly bypass. Callers hold lm.mu.
func (lm *LockManager) blockersLocked(tl *tableLock, w waiter, out map[ID]struct{}) {
	if w.isRange {
		for holder, hmode := range tl.holders {
			if holder != w.tx && !Compatible(intentFor(w.mode), hmode) {
				out[holder] = struct{}{}
			}
		}
		tl.ranges.overlapping(w.r, func(n *rangeNode) bool {
			if n.tx != w.tx && (n.mode == Exclusive || w.mode == Exclusive) {
				out[n.tx] = struct{}{}
			}
			return true
		})
	} else {
		for holder, hmode := range tl.holders {
			if holder != w.tx && !Compatible(w.mode, hmode) {
				out[holder] = struct{}{}
			}
		}
	}
	// FIFO edges: an earlier conflicting waiter must be granted (and
	// eventually release) before w, so w transitively waits on it.
	for _, earlier := range tl.queue {
		if earlier.seq >= w.seq || earlier.tx == w.tx {
			continue
		}
		if wouldConflict(earlier, w) && !tl.blockedByLocked(w.tx, earlier) {
			out[earlier.tx] = struct{}{}
		}
	}
}

// waitsForLocked returns every transaction tx is waiting on, across all
// of tx's queued requests on all tables. A transaction with no queued
// request has no outgoing edges. Callers hold lm.mu.
func (lm *LockManager) waitsForLocked(tx ID) map[ID]struct{} {
	out := make(map[ID]struct{})
	for _, tl := range lm.tables {
		for _, w := range tl.queue {
			if w.tx == tx {
				lm.blockersLocked(tl, w, out)
			}
		}
	}
	return out
}

// inCycleLocked reports whether start participates in a waits-for
// cycle: some chain of blocked transactions leads from start's blockers
// back to start. The timed-out request is still queued when this runs
// (its waiter is removed on the way out of the acquire), so start's own
// edges are visible. Callers hold lm.mu.
func (lm *LockManager) inCycleLocked(start ID) bool {
	visited := make(map[ID]bool)
	stack := make([]ID, 0, 8)
	for b := range lm.waitsForLocked(start) {
		stack = append(stack, b)
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t == start {
			return true
		}
		if visited[t] {
			continue
		}
		visited[t] = true
		for b := range lm.waitsForLocked(t) {
			stack = append(stack, b)
		}
	}
	return false
}
