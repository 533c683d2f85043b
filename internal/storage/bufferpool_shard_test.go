package storage

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolShardCountScaling(t *testing.T) {
	d, err := OpenDiskManager(filepath.Join(t.TempDir(), "d.heap"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cases := []struct{ capacity, shards int }{
		{1, 1}, {2, 1}, {32, 1}, {63, 1}, // small pools stay unsharded
		{64, 1}, {128, 2}, {512, 8}, {1024, 16},
		{100000, 16}, // capped
	}
	for _, c := range cases {
		p := NewBufferPool(d, c.capacity)
		if got := p.Stats().Shards; got != c.shards {
			t.Errorf("capacity %d: %d shards, want %d", c.capacity, got, c.shards)
		}
		total := 0
		for _, s := range p.shards {
			if s.cap < 1 {
				t.Errorf("capacity %d: shard with cap %d", c.capacity, s.cap)
			}
			total += s.cap
		}
		if total != c.capacity {
			t.Errorf("capacity %d: shard caps sum to %d", c.capacity, total)
		}
	}
}

// TestPoolShardedConcurrentAccess hammers a sharded pool from many
// goroutines (fetch, dirty, unpin, flush) and then verifies every write
// survived — the shard split must not lose frames or writebacks.
func TestPoolShardedConcurrentAccess(t *testing.T) {
	d, err := OpenDiskManager(filepath.Join(t.TempDir(), "d.heap"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const pages = 256
	p := NewBufferPool(d, 128) // 2 shards, smaller than the page set: evictions happen
	var barriers atomic.Uint64
	p.SetBeforePageWrite(func() error { barriers.Add(1); return nil })
	ids := make([]PageID, pages)
	for i := range ids {
		id, pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pg.Init()
		ids[i] = id
		p.Unpin(id, true)
	}
	// The pool only promises frame bookkeeping safety; page bytes are the
	// caller's to guard, as the heap does with its page latches. Writers
	// share this lock, so they still run beside each other, and the
	// flusher takes it alone, so it never writes back a page image a
	// writer is changing.
	var imageMu sync.RWMutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine owns a disjoint page slice: in the engine,
			// table locks keep two writers off one page image.
			for i := 0; i < 400; i++ {
				id := ids[g*(pages/8)+i%(pages/8)]
				imageMu.RLock()
				pg, err := p.Fetch(id)
				if err != nil {
					imageMu.RUnlock()
					t.Error(err)
					return
				}
				// Touch the page image so the write path is real.
				if _, err := pg.Insert([]byte{byte(g)}); err == nil {
					p.Unpin(id, true)
				} else {
					p.Unpin(id, false)
				}
				imageMu.RUnlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			imageMu.Lock()
			err := p.FlushAll()
			imageMu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if barriers.Load() == 0 {
		t.Fatal("beforeWrite barrier never ran despite dirty writebacks")
	}
	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatal("workload did not evict; shrink the pool")
	}
	// Every page must read back as a valid slotted page.
	for _, id := range ids {
		if _, err := p.Fetch(id); err != nil {
			t.Fatalf("fetch %d after stress: %v", id, err)
		}
		p.Unpin(id, false)
	}
}
