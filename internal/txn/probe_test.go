package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"opdelta/internal/obs"
)

// TestProbeBreaksDeadlockBeforeDeadline builds a genuine
// two-transaction range deadlock under a long lock deadline and checks
// the probe breaks it in probe time, classified as ErrDeadlock and
// counted on the registry — never as a timeout.
func TestProbeBreaksDeadlockBeforeDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	lm := NewLockManagerObs(5*time.Second, reg)
	if err := xRanges(lm, 1, kr(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := xRanges(lm, 2, kr(5, 6)); err != nil {
		t.Fatal(err)
	}
	// Each goroutine aborts (releases everything) when its acquire
	// fails, the way the engine reacts to ErrDeadlock — that is what
	// lets the surviving transaction proceed in probe time.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		if errs[0] = xRanges(lm, 1, kr(5, 6)); errs[0] != nil {
			lm.ReleaseAll(1)
		}
	}()
	go func() {
		defer wg.Done()
		if errs[1] = xRanges(lm, 2, kr(1, 2)); errs[1] != nil {
			lm.ReleaseAll(2)
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	// The probe must break the cycle well inside the 5s deadline.
	if elapsed > 2*time.Second {
		t.Fatalf("cycle took %v to break; probe did not fire", elapsed)
	}
	var deadlockErr error
	for _, err := range errs {
		if errors.Is(err, ErrDeadlock) {
			deadlockErr = err
		}
	}
	if deadlockErr == nil {
		t.Fatalf("no ErrDeadlock from the probe: %v, %v", errs[0], errs[1])
	}
	// ErrDeadlock stays inside the ErrLockTimeout family so existing
	// retry logic keeps working unchanged.
	if !errors.Is(deadlockErr, ErrLockTimeout) {
		t.Fatalf("ErrDeadlock must wrap ErrLockTimeout: %v", deadlockErr)
	}
	st := lm.Stats()
	if st.ProbeDeadlocks < 1 || st.Timeouts != 0 {
		t.Fatalf("ProbeDeadlocks = %d, Timeouts = %d, want >= 1 and 0 (stats: %+v)", st.ProbeDeadlocks, st.Timeouts, st)
	}
	if m := reg.Snapshot().Get("txn_lock_probe_deadlocks_total"); m == nil || m.Value < 1 {
		t.Fatalf("txn_lock_probe_deadlocks_total missing or zero: %+v", m)
	}
}

// TestProbeBreaksTableDeadlock runs the probe against cross-table
// deadlocks at table granularity, the cross-table edge walk: each
// transaction holds one table (shared or exclusive) and wants the
// other's exclusively. The victim releases its locks, so the survivor
// is granted without a timeout.
func TestProbeBreaksTableDeadlock(t *testing.T) {
	for _, tc := range []struct {
		name string
		held LockMode
	}{
		{"exclusive", Exclusive},
		{"shared", Shared},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lm := NewLockManager(time.Second)
			if err := lm.Acquire(1, "a", tc.held); err != nil {
				t.Fatal(err)
			}
			if err := lm.Acquire(2, "b", tc.held); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, 2)
			want := func(i int, tx ID, table string) {
				defer wg.Done()
				if errs[i] = lm.Acquire(tx, table, Exclusive); errs[i] != nil {
					lm.ReleaseAll(tx)
				}
			}
			wg.Add(2)
			go want(0, 1, "b")
			go want(1, 2, "a")
			wg.Wait()
			deadlocks := 0
			for _, err := range errs {
				if errors.Is(err, ErrDeadlock) {
					deadlocks++
				}
			}
			if deadlocks != 1 {
				t.Fatalf("%d ErrDeadlock, want exactly one victim: %v, %v", deadlocks, errs[0], errs[1])
			}
			st := lm.Stats()
			if st.ProbeDeadlocks != 1 {
				t.Fatalf("ProbeDeadlocks = %d, want 1 (stats: %+v)", st.ProbeDeadlocks, st)
			}
			if st.Timeouts != 0 {
				t.Fatalf("Timeouts = %d, want 0 (errs: %v, %v)", st.Timeouts, errs[0], errs[1])
			}
		})
	}
}

// TestProbeIgnoresPlainContention holds a lock past several probe
// intervals with no cycle: the waiter must be granted on the release,
// never reporting a deadlock.
func TestProbeIgnoresPlainContention(t *testing.T) {
	lm := NewLockManager(5 * time.Second)
	if err := lm.Acquire(1, "t", Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(2, "t", Exclusive) }()
	// Several probe intervals pass while txn 1 just holds (not waits).
	time.Sleep(3 * deadlockProbe)
	lm.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatalf("plain contention misclassified: %v", err)
	}
	if st := lm.Stats(); st.ProbeDeadlocks != 0 {
		t.Fatalf("ProbeDeadlocks = %d, want 0", st.ProbeDeadlocks)
	}
}

// TestContentionTimeoutIsNotACycle: plain contention ends in
// ErrLockTimeout, never ErrDeadlock — a waiter behind an idle holder,
// at table and at range granularity, is probed and found on no cycle.
func TestContentionTimeoutIsNotACycle(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hold    func(lm *LockManager) error
		request func(lm *LockManager) error
	}{
		{"table",
			func(lm *LockManager) error { return lm.Acquire(1, "t", Exclusive) },
			func(lm *LockManager) error { return lm.Acquire(2, "t", Exclusive) }},
		{"range",
			func(lm *LockManager) error { return xRanges(lm, 1, kr(1, 10)) },
			func(lm *LockManager) error { return xRanges(lm, 2, kr(5, 6)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The deadline spans several probe ticks.
			lm := NewLockManager(3 * deadlockProbe)
			if err := tc.hold(lm); err != nil {
				t.Fatal(err)
			}
			err := tc.request(lm)
			if !errors.Is(err, ErrLockTimeout) || errors.Is(err, ErrDeadlock) {
				t.Fatalf("want a plain ErrLockTimeout behind an idle holder, got %v", err)
			}
			if st := lm.Stats(); st.Timeouts != 1 || st.ProbeDeadlocks != 0 {
				t.Fatalf("Timeouts = %d, ProbeDeadlocks = %d, want 1 and 0", st.Timeouts, st.ProbeDeadlocks)
			}
		})
	}
}
