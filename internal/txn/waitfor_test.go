package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"opdelta/internal/obs"
)

// The two tests below build the deadlocks the waits-for analysis must
// recognise as cycles, with transactions that keep their locks after a
// failed acquire. The probe counts the cycle before any deadline: one
// waiter is the ErrDeadlock victim, and the survivor then waits on a
// transaction that waits on nothing, so its timeout is plain contention
// and never a second deadlock.

// TestCycleTimeoutCountsRangeDeadlock deadlocks two transactions on
// each other's key ranges.
func TestCycleTimeoutCountsRangeDeadlock(t *testing.T) {
	reg := obs.NewRegistry()
	lm := NewLockManagerObs(time.Second, reg)
	if err := xRanges(lm, 1, kr(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := xRanges(lm, 2, kr(5, 6)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = xRanges(lm, 1, kr(5, 6)) }()
	go func() { defer wg.Done(); errs[1] = xRanges(lm, 2, kr(1, 2)) }()
	wg.Wait()
	checkOneVictim(t, lm, errs)
	if m := reg.Snapshot().Get("txn_lock_probe_deadlocks_total"); m == nil || m.Value != 1 {
		t.Fatalf("txn_lock_probe_deadlocks_total missing or not 1 on the registry: %+v", m)
	}
}

// TestCycleTimeoutCountsCrossTableDeadlock deadlocks two transactions
// across two tables at table granularity, shared then exclusive,
// exercising the cross-table edge walk.
func TestCycleTimeoutCountsCrossTableDeadlock(t *testing.T) {
	lm := NewLockManager(time.Second)
	if err := lm.Acquire(1, "a", Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "b", Shared); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = lm.Acquire(1, "b", Exclusive) }()
	go func() { defer wg.Done(); errs[1] = lm.Acquire(2, "a", Exclusive) }()
	wg.Wait()
	checkOneVictim(t, lm, errs)
}

// checkOneVictim asserts exactly one ErrDeadlock, counted once by the
// probe, and a plain ErrLockTimeout for the survivor.
func checkOneVictim(t *testing.T, lm *LockManager, errs []error) {
	t.Helper()
	deadlocks, timeouts := 0, 0
	for _, err := range errs {
		switch {
		case errors.Is(err, ErrDeadlock):
			deadlocks++
		case errors.Is(err, ErrLockTimeout):
			timeouts++
		}
	}
	if deadlocks != 1 || timeouts != 1 {
		t.Fatalf("want one ErrDeadlock and one plain ErrLockTimeout, got %v, %v", errs[0], errs[1])
	}
	if st := lm.Stats(); st.ProbeDeadlocks != 1 || st.Timeouts != 1 {
		t.Fatalf("ProbeDeadlocks = %d, Timeouts = %d, want 1 and 1 (stats: %+v)", st.ProbeDeadlocks, st.Timeouts, st)
	}
}
