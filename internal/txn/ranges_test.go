package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
)

func kr(lo, hi int64) keyset.KeyRange {
	return keyset.KeyRange{
		Lo: catalog.NewInt(lo), Hi: catalog.NewInt(hi),
		HasLo: true, HasHi: true,
	}
}

func krOpenHi(lo, hi int64) keyset.KeyRange {
	r := kr(lo, hi)
	r.HiOpen = true
	return r
}

func xRanges(lm *LockManager, tx ID, rs ...keyset.KeyRange) error {
	return lm.AcquireRanges(tx, "t", Exclusive, rs)
}

func TestDisjointExclusiveRangesCoexist(t *testing.T) {
	lm := NewLockManager(time.Second)
	if err := xRanges(lm, 1, kr(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := xRanges(lm, 2, kr(11, 20)); err != nil {
		t.Fatalf("disjoint range should not block: %v", err)
	}
	// Both hold IX at the table level and X over their own interval.
	if lm.Holding(1, "t") != IntentExclusive || lm.Holding(2, "t") != IntentExclusive {
		t.Fatalf("holders = %s, %s, want IX, IX", lm.Holding(1, "t"), lm.Holding(2, "t"))
	}
	if lm.HoldingRange(1, "t", kr(2, 3)) != Exclusive {
		t.Fatal("tx1 should hold X over a sub-interval of its range")
	}
	if lm.HoldingRange(1, "t", kr(11, 12)) != 0 {
		t.Fatal("tx1 holds nothing over tx2's interval")
	}
}

func TestOverlappingExclusiveRangesBlockAndWake(t *testing.T) {
	lm := NewLockManager(5 * time.Second)
	if err := xRanges(lm, 1, kr(1, 10)); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- xRanges(lm, 2, kr(5, 15)) }()
	select {
	case err := <-acquired:
		t.Fatalf("overlapping X range granted while held (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken by release")
	}
}

func TestAdjacentRangeBoundaries(t *testing.T) {
	// Closed intervals meeting at a key share it: conflict.
	lm := NewLockManager(50 * time.Millisecond)
	if err := xRanges(lm, 1, kr(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := xRanges(lm, 2, kr(5, 9)); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("[1,5] and [5,9] share key 5, want timeout, got %v", err)
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
	// A half-open bound at the same key does not: [1,5) and [5,9] are
	// disjoint, exactly the partition-boundary case adjacent appliers
	// produce.
	if err := xRanges(lm, 3, krOpenHi(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := xRanges(lm, 4, kr(5, 9)); err != nil {
		t.Fatalf("[1,5) and [5,9] are disjoint, got %v", err)
	}
}

func TestSharedRangesCoexistAndConflictWithExclusive(t *testing.T) {
	lm := NewLockManager(50 * time.Millisecond)
	if err := lm.AcquireRanges(1, "t", Shared, []keyset.KeyRange{kr(1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := lm.AcquireRanges(2, "t", Shared, []keyset.KeyRange{kr(5, 15)}); err != nil {
		t.Fatalf("overlapping S ranges should coexist: %v", err)
	}
	if err := xRanges(lm, 3, kr(8, 9)); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("X inside held S ranges, want timeout, got %v", err)
	}
	// Disjoint X proceeds: the readers only protect their stripes.
	if err := xRanges(lm, 3, kr(20, 30)); err != nil {
		t.Fatalf("X disjoint from all S ranges: %v", err)
	}
}

func TestTableSharedVersusRangeWriters(t *testing.T) {
	lm := NewLockManager(50 * time.Millisecond)
	if err := xRanges(lm, 1, kr(1, 10)); err != nil {
		t.Fatal(err)
	}
	// Whole-table S needs every key, so the IX holder blocks it.
	if err := lm.Acquire(2, "t", Shared); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("table S under IX, want timeout, got %v", err)
	}
	// A range S on untouched keys coexists with the range writer.
	if err := lm.AcquireRanges(2, "t", Shared, []keyset.KeyRange{kr(50, 60)}); err != nil {
		t.Fatalf("disjoint range S under IX: %v", err)
	}
}

func TestRangeUpgradeSharedToExclusive(t *testing.T) {
	lm := NewLockManager(time.Second)
	if err := lm.AcquireRanges(1, "t", Shared, []keyset.KeyRange{kr(1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := xRanges(lm, 1, kr(3, 4)); err != nil {
		t.Fatalf("self-upgrade of a sub-range: %v", err)
	}
	if lm.HoldingRange(1, "t", kr(3, 4)) != Exclusive {
		t.Fatal("upgraded sub-range should report X")
	}
	st := lm.TableStats()["t"]
	if st.Upgrades == 0 {
		t.Fatal("upgrade counter should have advanced")
	}
}

func TestRangeDeadlockResolvesByTimeout(t *testing.T) {
	lm := NewLockManager(100 * time.Millisecond)
	if err := xRanges(lm, 1, kr(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := xRanges(lm, 2, kr(10, 15)); err != nil {
		t.Fatal(err)
	}
	// Each now wants the other's interval: a cycle no grant order can
	// satisfy. The probe breaks it with ErrDeadlock, an ErrLockTimeout.
	errs := make(chan error, 2)
	go func() { errs <- xRanges(lm, 1, kr(10, 12)) }()
	go func() { errs <- xRanges(lm, 2, kr(2, 3)) }()
	var timedOut bool
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrLockTimeout) {
				timedOut = true
				// The victim's locks release, letting the survivor through.
				if err == nil {
					continue
				}
				lm.ReleaseAll(1)
				lm.ReleaseAll(2)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("deadlock not resolved")
		}
	}
	if !timedOut {
		t.Fatal("expected at least one ErrLockTimeout from the cycle")
	}
}

func TestRangeEscalationToTableLock(t *testing.T) {
	lm := NewLockManager(time.Second)
	for i := 0; i < escalateThreshold; i++ {
		if err := xRanges(lm, 1, kr(int64(i*10), int64(i*10+5))); err != nil {
			t.Fatal(err)
		}
	}
	if lm.Holding(1, "t") != Exclusive {
		t.Fatalf("after %d ranges holder mode = %s, want escalated X", escalateThreshold, lm.Holding(1, "t"))
	}
	st := lm.TableStats()["t"]
	if st.Escalations != 1 {
		t.Fatalf("escalations = %d, want 1", st.Escalations)
	}
	// The table X now covers everything without new range state.
	if lm.HoldingRange(1, "t", kr(1_000_000, 1_000_001)) != Exclusive {
		t.Fatal("escalated holder should cover arbitrary ranges")
	}
	// And another transaction is fully excluded.
	if err := xRanges(lm, 2, kr(999, 999)); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want timeout under escalated X, got %v", err)
	}
}

func TestEscalationDeferredWhileOthersHoldRanges(t *testing.T) {
	lm := NewLockManager(time.Second)
	if err := xRanges(lm, 2, kr(-100, -90)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < escalateThreshold+10; i++ {
		if err := xRanges(lm, 1, kr(int64(i*10), int64(i*10+5))); err != nil {
			t.Fatal(err)
		}
	}
	// tx2's live range makes table X incompatible: tx1 must keep its
	// ranges rather than block or jump.
	if lm.Holding(1, "t") != IntentExclusive {
		t.Fatalf("holder mode = %s, want IX (escalation deferred)", lm.Holding(1, "t"))
	}
	if lm.HoldingRange(2, "t", kr(-95, -95)) != Exclusive {
		t.Fatal("bystander's range must survive the deferred escalation")
	}
}

// TestRangeWriterNotStarvedByStripeReaders is the FIFO fairness
// regression for ranges: a continuous stream of overlapping shared
// stripe readers must not starve a writer wanting an intersecting
// interval. Grant order is FIFO with a conflict-aware bypass, so the
// writer gets in as soon as the readers that preceded it drain.
func TestRangeWriterNotStarvedByStripeReaders(t *testing.T) {
	lm := NewLockManager(5 * time.Second)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(base ID) {
			defer wg.Done()
			id := base
			for {
				select {
				case <-stop:
					return
				default:
				}
				id += 10
				if err := lm.AcquireRanges(id, "t", Shared, []keyset.KeyRange{kr(0, 100)}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				lm.ReleaseAll(id)
			}
		}(ID(r + 1))
	}
	time.Sleep(10 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- xRanges(lm, 1_000_000, kr(40, 60)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("range writer starved by reader stream")
	}
	lm.ReleaseAll(1_000_000)
	close(stop)
	wg.Wait()
}

// Disjoint writers must keep flowing around a queued conflicting
// waiter: the FIFO bypass lets a request jump the queue only when it
// conflicts with no earlier waiter, so key-disjoint appliers never
// convoy behind an unrelated blocked transaction.
func TestDisjointWriterBypassesBlockedWaiter(t *testing.T) {
	lm := NewLockManager(5 * time.Second)
	if err := lm.AcquireRanges(1, "t", Shared, []keyset.KeyRange{kr(1, 10)}); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- xRanges(lm, 2, kr(5, 6)) }() // waits on tx1
	time.Sleep(20 * time.Millisecond)
	// tx3 is disjoint from both the held and the queued interval; it
	// must be granted immediately, not convoy behind tx2.
	granted := make(chan error, 1)
	go func() { granted <- xRanges(lm, 3, kr(50, 60)) }()
	select {
	case err := <-granted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("disjoint writer convoyed behind a blocked waiter")
	}
	lm.ReleaseAll(1)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(2)
	lm.ReleaseAll(3)
}

// TestRangesUnderCoveringTableModeAreFree: a range request the held
// table mode already implies returns before any bookkeeping — no grant,
// no per-table acquire, no range state — for S under S/SIX/X and X
// under X, and for an unsorted multi-range request as for a point. A
// table mode that does not cover (IX for an X range) still goes through
// the tree.
func TestRangesUnderCoveringTableModeAreFree(t *testing.T) {
	lm := NewLockManager(100 * time.Millisecond)
	if err := lm.Acquire(1, "t", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "u", Shared); err != nil {
		t.Fatal(err)
	}
	stats, tables := lm.Stats(), lm.TableStats()
	for i := 0; i < 100; i++ {
		if err := xRanges(lm, 1, kr(int64(i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := lm.AcquireRanges(1, "t", Shared, []keyset.KeyRange{kr(50, 60), kr(1, 2), kr(20, 30)}); err != nil {
		t.Fatal(err)
	}
	if err := lm.AcquireRanges(2, "u", Shared, []keyset.KeyRange{kr(7, 7)}); err != nil {
		t.Fatal(err)
	}
	if got := lm.Stats(); got != stats {
		t.Fatalf("covered range requests moved lock stats: %+v -> %+v", stats, got)
	}
	for name, before := range tables {
		if got := lm.TableStats()[name]; got != before {
			t.Fatalf("covered range requests moved %s stats: %+v -> %+v", name, before, got)
		}
	}
	if lm.HoldingRange(1, "t", kr(5, 5)) != Exclusive || lm.HoldingRange(2, "u", kr(7, 7)) != Shared {
		t.Fatal("covering table modes should answer for their ranges")
	}
	// IX does not cover an X range: that one is granted and counted.
	if err := xRanges(lm, 3, kr(1, 1)); err == nil {
		t.Fatal("tx3 must wait out tx1's table X")
	}
	lm.ReleaseAll(1)
	if err := xRanges(lm, 3, kr(1, 1), kr(0, 0)); err != nil {
		t.Fatal(err)
	}
	if got := lm.TableStats()["t"].RangeAcquires; got != 2 {
		t.Fatalf("range acquires = %d, want 2", got)
	}
}

// treeDepth is the number of nodes on the longest root-to-leaf path.
func treeDepth(n *rangeNode) int {
	if n == nil {
		return 0
	}
	return 1 + max(treeDepth(n.left), treeDepth(n.right))
}

// checkTree verifies the tree's invariants below n — in-order by lower
// bound, subtree sizes, maximum upper bounds — and returns its in-order
// nodes.
func checkTree(t *testing.T, n *rangeNode) []*rangeNode {
	t.Helper()
	if n == nil {
		return nil
	}
	left, right := checkTree(t, n.left), checkTree(t, n.right)
	if n.size != len(left)+1+len(right) {
		t.Fatalf("node %s: size %d, subtree holds %d", n.r, n.size, len(left)+1+len(right))
	}
	want := *n
	want.recomputeMax()
	if want.maxHiInf != n.maxHiInf || keyset.TotalCompare(want.maxHi, n.maxHi) != 0 {
		t.Fatalf("node %s: stale max upper bound", n.r)
	}
	if len(left) > 0 && keyset.CompareLo(left[len(left)-1].r, n.r) > 0 ||
		len(right) > 0 && keyset.CompareLo(right[0].r, n.r) < 0 {
		t.Fatalf("node %s out of order", n.r)
	}
	return append(append(left, n), right...)
}

// TestRangeTreeStaysShallow: 1 000 ascending, descending or shuffled
// inserts leave a tree at most 2⌈log₂ n⌉+2 nodes deep, with every
// invariant intact and every overlap query answered as a scan would. A
// plain BST rebuilt only when its size doubles reached depth 497 on the
// ascending order.
func TestRangeTreeStaysShallow(t *testing.T) {
	const n = 1000
	bound := 2*10 + 2 // ⌈log₂ 1000⌉ = 10
	orders := map[string]func(i int) int64{
		"ascending":  func(i int) int64 { return int64(i) },
		"descending": func(i int) int64 { return int64(n - i) },
		"shuffled":   func(i int) int64 { return int64(i*617) % n }, // 617 is prime to 1000
	}
	for name, key := range orders {
		var tree rangeTree
		for i := 0; i < n; i++ {
			k := 2 * key(i)
			tree.insert(ID(i), Exclusive, kr(k, k+1))
		}
		if d := treeDepth(tree.root); d > bound {
			t.Errorf("%s: depth %d after %d inserts, bound %d", name, d, n, bound)
		}
		nodes := checkTree(t, tree.root)
		if len(nodes) != n || tree.size != n {
			t.Fatalf("%s: %d nodes in order, size %d", name, len(nodes), tree.size)
		}
		for _, q := range []keyset.KeyRange{kr(0, 0), kr(501, 510), kr(1998, 5000), kr(-5, -1)} {
			var got, want int
			tree.overlapping(q, func(*rangeNode) bool { got++; return true })
			for _, nd := range nodes {
				if nd.r.Intersects(q) {
					want++
				}
			}
			if got != want {
				t.Errorf("%s: %d nodes overlap %s, want %d", name, got, q, want)
			}
		}
	}
}

// TestOwnRangesAnswerCoveredRequests: a request inside ranges tx already
// holds — as every statement of a warehouse group is inside its
// pre-declared plan — returns before any bookkeeping, for AcquireRanges
// and CoversKeys alike. A key outside them, a NULL key, or an X request
// over an own S range is not covered.
func TestOwnRangesAnswerCoveredRequests(t *testing.T) {
	lm := NewLockManager(100 * time.Millisecond)
	if err := xRanges(lm, 1, kr(1, 100), kr(200, 300)); err != nil {
		t.Fatal(err)
	}
	if err := lm.AcquireRanges(1, "t", Shared, []keyset.KeyRange{kr(400, 410)}); err != nil {
		t.Fatal(err)
	}
	stats, tables := lm.Stats(), lm.TableStats()
	if err := xRanges(lm, 1, kr(250, 250), kr(5, 5), kr(7, 90)); err != nil {
		t.Fatal(err)
	}
	if err := lm.AcquireRanges(1, "t", Shared, []keyset.KeyRange{kr(3, 4), kr(405, 405)}); err != nil {
		t.Fatal(err)
	}
	if got := lm.Stats(); got != stats {
		t.Fatalf("covered requests moved lock stats: %+v -> %+v", stats, got)
	}
	if got := lm.TableStats()["t"]; got != tables["t"] {
		t.Fatalf("covered requests moved table stats: %+v -> %+v", tables["t"], got)
	}
	keys := func(ks ...catalog.Value) func(int) catalog.Value { return func(i int) catalog.Value { return ks[i] } }
	for _, c := range []struct {
		mode LockMode
		keys []catalog.Value
		want bool
	}{
		{Exclusive, []catalog.Value{catalog.NewInt(1), catalog.NewInt(100), catalog.NewInt(250)}, true},
		{Shared, []catalog.Value{catalog.NewInt(50), catalog.NewInt(410)}, true},
		{Exclusive, []catalog.Value{catalog.NewInt(50), catalog.NewInt(101)}, false},
		{Exclusive, []catalog.Value{catalog.NewInt(405)}, false}, // own S does not cover X
		{Exclusive, []catalog.Value{catalog.NewNull(catalog.TypeInt64)}, false},
	} {
		if got := lm.CoversKeys(1, "t", c.mode, len(c.keys), keys(c.keys...)); got != c.want {
			t.Errorf("CoversKeys(%s, %v) = %v, want %v", c.mode, c.keys, got, c.want)
		}
	}
	if lm.CoversKeys(2, "t", Shared, 1, keys(catalog.NewInt(50))) {
		t.Error("tx1's ranges cover tx2's keys")
	}
	// An X request over the own S range is granted, and counted.
	if err := xRanges(lm, 1, kr(405, 405)); err != nil {
		t.Fatal(err)
	}
	if got := lm.Stats().Grants; got != stats.Grants+1 {
		t.Fatalf("grants %d -> %d, want one more for the X over own S", stats.Grants, got)
	}
}
