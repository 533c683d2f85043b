package wal

import (
	"fmt"
	"sync"
	"testing"
)

func openTestWriter(t *testing.T, opts Options) (*Writer, string) {
	t.Helper()
	dir := t.TempDir()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, dir
}

// TestAppendDefersDurability checks that Append makes nothing durable,
// even a commit record under SyncFull, and WaitDurable supplies it.
func TestAppendDefersDurability(t *testing.T) {
	w, dir := openTestWriter(t, Options{Sync: SyncFull})
	lsn, err := w.Append(&Record{Type: RecCommit, Txn: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Syncs; got != 0 {
		t.Fatalf("Append issued %d fsyncs, want 0", got)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Syncs; got == 0 {
		t.Fatal("WaitDurable under SyncFull must fsync")
	}
	// Durability is idempotent and cheap the second time around.
	before := w.Stats().Syncs
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Syncs; got != before {
		t.Fatalf("redundant WaitDurable issued %d extra fsyncs", got-before)
	}
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != lsn {
		t.Fatalf("log content wrong after WaitDurable: %+v", recs)
	}
}

// TestGroupCommitAmortizesSyncs drives many concurrent committers
// through Append+WaitDurable and checks the leader batched
// them: far fewer fsyncs than commits.
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	w, _ := openTestWriter(t, Options{Sync: SyncFull})
	const committers = 32
	const rounds = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, committers*rounds)
	var txn uint64
	var txnMu sync.Mutex
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				txnMu.Lock()
				txn++
				id := txn
				txnMu.Unlock()
				lsn, err := w.Append(&Record{Type: RecCommit, Txn: id})
				if err == nil {
					err = w.WaitDurable(lsn)
				}
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Appended != committers*rounds {
		t.Fatalf("appended %d records, want %d", st.Appended, committers*rounds)
	}
	if st.Syncs >= st.Appended {
		t.Fatalf("no grouping: %d fsyncs for %d commits", st.Syncs, st.Appended)
	}
	if st.GroupSyncs == 0 {
		t.Fatal("no group-commit rounds recorded")
	}
}

// TestWaitDurablePolicies checks the policy ladder on the commit path.
// Append alone flushes and fsyncs nothing under any policy; WaitDurable
// then does nothing under SyncNone, flushes under SyncFlush, and flushes
// and fsyncs under SyncFull. TestSyncPolicies covers the page barrier
// and Close.
func TestWaitDurablePolicies(t *testing.T) {
	for _, tc := range []struct {
		policy SyncPolicy
		// Flushes and fsyncs WaitDurable issues.
		waitFlushes, waitSyncs uint64
	}{
		{SyncNone, 0, 0},
		{SyncFlush, 1, 0},
		{SyncFull, 1, 1},
	} {
		w, dir := openTestWriter(t, Options{Sync: tc.policy})
		lsn, err := w.Append(&Record{Type: RecCommit, Txn: 1})
		if err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Flushes != 0 || st.Syncs != 0 {
			t.Fatalf("policy %d: Append alone flushed %d and fsynced %d times", tc.policy, st.Flushes, st.Syncs)
		}
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatalf("policy %d: %v", tc.policy, err)
		}
		st := w.Stats()
		if st.Flushes != tc.waitFlushes || st.Syncs != tc.waitSyncs {
			t.Fatalf("policy %d: WaitDurable flushed %d and fsynced %d times, want %d and %d",
				tc.policy, st.Flushes, st.Syncs, tc.waitFlushes, tc.waitSyncs)
		}
		recs, err := ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		if inFile := len(recs) == 1; inFile != (tc.policy != SyncNone) {
			t.Fatalf("policy %d: %d records in the segment after WaitDurable", tc.policy, len(recs))
		}

		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWaitDurableAcrossRotation makes sure durability already provided
// by a rotation (which flushes and fsyncs the closing segment) is
// recognized instead of re-synced or erroneously failed.
func TestWaitDurableAcrossRotation(t *testing.T) {
	w, dir := openTestWriter(t, Options{Sync: SyncFull, SegmentSize: 128})
	var last LSN
	for i := 0; i < 20; i++ {
		lsn, err := w.Append(&Record{Type: RecInsert, Txn: 1, Table: "t",
			After: []byte("payload-payload-payload")})
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if w.ActiveSegment() == 1 {
		t.Fatal("workload did not rotate; grow the payload")
	}
	if err := w.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("read %d records back, want 20", len(recs))
	}
}

// TestConcurrentAppendsStayLSNDense runs concurrent appenders, half of
// them waiting for durability: every waiter's record is durable when
// WaitDurable returns, and after Close the log holds every record under
// a dense run of LSNs.
func TestConcurrentAppendsStayLSNDense(t *testing.T) {
	w, dir := openTestWriter(t, Options{Sync: SyncFull})
	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			lsn, err := w.Append(&Record{Type: RecCommit, Txn: uint64(i + 1)})
			if err == nil && i%2 == 1 {
				if err = w.WaitDurable(lsn); err == nil && w.CommitVisibleLSN() < lsn {
					err = fmt.Errorf("WaitDurable(%d) returned with the durable mark at %d", lsn, w.CommitVisibleLSN())
				}
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	seen := make(map[LSN]bool)
	for _, r := range recs {
		if seen[r.LSN] {
			t.Fatalf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
	}
	for lsn := LSN(1); lsn <= LSN(n); lsn++ {
		if !seen[lsn] {
			t.Fatalf("missing LSN %d", lsn)
		}
	}
}
