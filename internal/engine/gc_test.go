package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"opdelta/internal/obs"
)

// manualClock advances only when told, unlike logicalClock's
// tick-per-call: snapshot ages and rate windows need exact control.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Date(2000, 3, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestAdaptiveGCThreshold: the automatic trigger's threshold starts at
// the base and grows with the observed version creation rate times the
// history horizon, the age of the oldest live snapshot.
func TestAdaptiveGCThreshold(t *testing.T) {
	clock := newManualClock()
	db := openTestDB(t, Options{Now: clock.Now})
	createParts(t, db)
	// A snapshot held open sets the horizon: 10s old when the rate is
	// sampled below.
	stx := db.BeginSnapshot()
	defer stx.Commit()
	clock.Advance(9 * time.Second)

	if thr := db.gcThreshold(); thr != gcBaseThreshold {
		t.Fatalf("initial threshold = %d, want base %d", thr, gcBaseThreshold)
	}
	// A burst of versions over one second: the EWMA blends in 20% of the
	// instantaneous rate, and the 10s horizon scales it into the
	// threshold.
	for i := 0; i < 100; i++ {
		commitRows(t, db, fmt.Sprintf(`INSERT INTO parts (part_id, qty) VALUES (%d, 0)`, i+1))
	}
	created := db.vm.Created.Value()
	clock.Advance(time.Second)
	thr := db.gcThreshold()
	if thr <= gcBaseThreshold {
		t.Fatalf("threshold after writes = %d, want > base %d", thr, gcBaseThreshold)
	}
	want := gcBaseThreshold + int64((1-gcRateBlend)*float64(created)*10)
	if thr != want {
		t.Fatalf("threshold = %d, want %d (base + 0.2*rate*horizon)", thr, want)
	}
	// Idle windows decay the estimate back toward the base.
	for i := 0; i < 40; i++ {
		clock.Advance(time.Second)
		db.gcThreshold()
	}
	if thr := db.gcThreshold(); thr >= want {
		t.Fatalf("threshold after idle = %d, want decayed below %d", thr, want)
	}
}

// TestVersionCountGauge: the engine exports the live version population
// the adaptive trigger reads.
func TestVersionCountGauge(t *testing.T) {
	reg := obs.NewRegistry()
	db := openTestDB(t, Options{Obs: reg})
	createParts(t, db)
	commitRows(t, db, `INSERT INTO parts (part_id, qty) VALUES (1, 1), (2, 2)`)
	m := reg.Snapshot().Get("mvcc_version_count")
	if m == nil || m.Value != float64(db.VersionCount()) || m.Value == 0 {
		t.Fatalf("mvcc_version_count = %v, want live count %d", m, db.VersionCount())
	}
}
