package storage

import (
	"fmt"
	"testing"

	"opdelta/internal/obs"
)

// TestHotKeyStagingAppends: a key written by one transaction after
// another — the applied log's high-water row, an aggregate view's group
// row — grows its chain by appending, so staging costs no copy of the
// history: well under one allocation per write on average. Readers and
// GC still see the chain newest first.
func TestHotKeyStagingAppends(t *testing.T) {
	vs := NewVersionStore(NewVersionMetrics(obs.NewRegistry()))
	const key = "hot"
	img := func(i uint64) []byte { return []byte(fmt.Sprint(i)) }
	images := make([][]byte, 2001)
	for i := range images {
		images[i] = img(uint64(i))
	}
	vs.Stage(key, 1, images[0], images[1])
	vs.Resolve([]string{key}, 1, 1)
	txn := uint64(1)
	allocs := testing.AllocsPerRun(1998, func() { // plus one warm-up run
		txn++
		vs.Stage(key, txn, nil, images[txn])
		vs.Resolve([]string{key}, txn, txn)
	})
	if allocs > 0.1 {
		t.Fatalf("%.2f allocations per write of a hot key, want the chain to grow by appending", allocs)
	}
	for _, lsn := range []uint64{0, 1, 700, txn} {
		if got, have := vs.Visible(key, lsn); !have || string(got) != string(images[lsn]) {
			t.Fatalf("Visible at %d = %q, %v; want %q", lsn, got, have, images[lsn])
		}
	}
	if reclaimed, floor := vs.GC(700); reclaimed != 700 || floor != 700 {
		t.Fatalf("GC(700) reclaimed %d versions with floor %d, want 700 and 700", reclaimed, floor)
	}
	for _, lsn := range []uint64{700, 1500, txn} {
		if got, _ := vs.Visible(key, lsn); string(got) != string(images[lsn]) {
			t.Fatalf("after GC, Visible at %d = %q, want %q", lsn, got, images[lsn])
		}
	}
	if reclaimed, _ := vs.GC(txn); reclaimed != int(txn)-700+1 {
		t.Fatalf("GC(%d) reclaimed %d, want the history and then the chain", txn, reclaimed)
	}
	if _, have := vs.Visible(key, txn); have {
		t.Fatal("a chain reduced to its anchor is still held")
	}
}
