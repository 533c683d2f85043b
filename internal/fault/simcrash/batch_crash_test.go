package simcrash

import "testing"

// TestBatchCrashPoints crashes the multi-page statement workload at
// every mutating filesystem operation and every crash point inside its
// batches — before and after each applies — recovers, and checks that
// every statement landed whole or not at all.
func TestBatchCrashPoints(t *testing.T) {
	states, total, err := batchStates()
	if err != nil {
		t.Fatal(err)
	}
	for op := uint64(1); op <= total; op++ {
		for _, before := range []bool{true, false} {
			if err := RunBatchCrash(states, op, before); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d mutating operations and crash points, %d states", total, len(states))
}
