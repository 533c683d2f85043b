package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestFrameUnframeRoundtrip(t *testing.T) {
	recs := []*Record{
		{Type: RecBegin, Txn: 1},
		{Type: RecCommit, Txn: 1},
		{Type: RecInsert, Txn: 2, Table: "parts", Page: 7, Slot: 3, After: []byte("after-image")},
		{Type: RecDelete, Txn: 2, Table: "parts", Page: 9, Slot: 0, Before: []byte("before")},
		{Type: RecUpdate, Txn: 3, Table: "orders", Page: 1, Slot: 2, NewPage: 8, NewSlot: 5,
			Before: []byte("old"), After: []byte("new")},
		{Type: RecCheckpoint},
		{Type: RecInsert, Txn: 4, Table: "", After: nil}, // empty edge cases
	}
	var buf []byte
	for i, r := range recs {
		r.LSN = LSN(i + 1)
		buf = Frame(buf, r)
	}
	pos := 0
	for i, want := range recs {
		got, n, err := Unframe(buf[pos:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		pos += n
		if got.Type != want.Type || got.Txn != want.Txn || got.Table != want.Table ||
			got.LSN != want.LSN || got.Page != want.Page || got.Slot != want.Slot ||
			got.NewPage != want.NewPage || got.NewSlot != want.NewSlot ||
			!bytes.Equal(got.Before, want.Before) || !bytes.Equal(got.After, want.After) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if pos != len(buf) {
		t.Fatalf("consumed %d of %d bytes", pos, len(buf))
	}
}

func TestUnframeDetectsCorruption(t *testing.T) {
	buf := Frame(nil, &Record{Type: RecInsert, Txn: 1, Table: "t", After: []byte("payload")})
	// Flip a payload byte: crc must catch it.
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0xff
	if _, _, err := Unframe(bad); !errors.Is(err, ErrTorn) {
		t.Fatalf("corrupt payload: err = %v, want ErrTorn", err)
	}
	// Truncations at every length must be torn, not panics.
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := Unframe(buf[:cut]); !errors.Is(err, ErrTorn) {
			t.Fatalf("truncation at %d: err = %v", cut, err)
		}
	}
}

func TestQuickFrameRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rec := &Record{
			Type:    RecType(1 + r.Intn(7)),
			Txn:     r.Uint64(),
			Table:   string(randASCII(r, r.Intn(30))),
			Page:    r.Uint32(),
			Slot:    uint16(r.Uint32()),
			NewPage: r.Uint32(),
			NewSlot: uint16(r.Uint32()),
		}
		if r.Intn(2) == 0 {
			rec.Before = randB(r, r.Intn(200))
		}
		if r.Intn(2) == 0 {
			rec.After = randB(r, r.Intn(200))
		}
		buf := Frame(nil, rec)
		got, n, err := Unframe(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return got.Type == rec.Type && got.Txn == rec.Txn && got.Table == rec.Table &&
			bytes.Equal(got.Before, rec.Before) && bytes.Equal(got.After, rec.After)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randB(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func randASCII(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return b
}

func TestWriterAssignsMonotonicLSNs(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(filepath.Join(dir, "wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var last LSN
	for i := 0; i < 100; i++ {
		lsn, err := w.Append(&Record{Type: RecInsert, Txn: uint64(i), Table: "t", After: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		if lsn <= last {
			t.Fatalf("LSN %d not monotonic after %d", lsn, last)
		}
		last = lsn
	}
}

func TestWriterReaderRoundtrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := Open(dir, Options{SegmentSize: 4096}) // force rotations
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := w.Append(&Record{Type: RecInsert, Txn: uint64(i), Table: "parts",
			After: bytes.Repeat([]byte{byte(i)}, 50)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Rotations == 0 {
		t.Fatal("expected segment rotations with a 4 KiB segment size")
	}
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) || r.Txn != uint64(i) {
			t.Fatalf("record %d out of order: lsn=%d txn=%d", i, r.LSN, r.Txn)
		}
	}
}

func TestWriterResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append(&Record{Type: RecInsert, Txn: 1, Table: "t", After: []byte("a")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w2.Append(&Record{Type: RecCommit, Txn: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("resumed LSN = %d, want 11", lsn)
	}
	w2.Close()
	recs, err := ReadAll(dir)
	if err != nil || len(recs) != 11 {
		t.Fatalf("ReadAll after resume: %d recs, %v", len(recs), err)
	}
}

func TestWriterTruncatesTornTailOnResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := Open(dir, Options{Sync: SyncFlush})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append(&Record{Type: RecCommit, Txn: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Simulate a crash mid-write: append garbage to the segment.
	segs, _ := ListSegments(dir)
	path := SegmentPath(dir, segs[len(segs)-1])
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0x00})
	f.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.NextLSN(); got != 6 {
		t.Fatalf("NextLSN after torn tail = %d, want 6", got)
	}
	recs, err := ReadAll(dir)
	if err != nil || len(recs) != 5 {
		t.Fatalf("ReadAll = %d recs, %v", len(recs), err)
	}
}

func TestArchiveModeCopiesClosedSegments(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "wal")
	arch := filepath.Join(base, "archive")
	w, err := Open(dir, Options{SegmentSize: 2048, ArchiveDir: arch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := w.Append(&Record{Type: RecInsert, Txn: uint64(i), Table: "t",
			After: bytes.Repeat([]byte("a"), 40)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(); err != nil { // make sure the tail is archived too
		t.Fatal(err)
	}
	w.Close()
	archSegs, err := ListSegments(arch)
	if err != nil {
		t.Fatal(err)
	}
	if len(archSegs) == 0 {
		t.Fatal("no segments archived")
	}
	recs, err := ReadAll(arch)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 200 {
		t.Fatalf("archive holds %d records, want 200", len(recs))
	}
}

func TestRecycleKeepsArchive(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "wal")
	arch := filepath.Join(base, "archive")
	w, err := Open(dir, Options{SegmentSize: 2048, ArchiveDir: arch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		w.Append(&Record{Type: RecInsert, Txn: uint64(i), Table: "t", After: bytes.Repeat([]byte("b"), 40)})
	}
	active := w.ActiveSegment()
	if active < 2 {
		t.Fatal("test needs multiple segments")
	}
	if err := w.Recycle(active); err != nil {
		t.Fatal(err)
	}
	liveSegs, _ := ListSegments(dir)
	if len(liveSegs) != 1 || liveSegs[0] != active {
		t.Fatalf("live segments after recycle = %v, want [%d]", liveSegs, active)
	}
	archSegs, _ := ListSegments(arch)
	if len(archSegs) != int(active-1) {
		t.Fatalf("archive segments = %v, want %d", archSegs, active-1)
	}
	w.Close()
}

// TestSyncPolicies checks the policy ladder away from the commit path.
// The page barrier flushes under every policy and fsyncs only under
// SyncFull. Close fsyncs under every policy, and that fsync is counted.
func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy       SyncPolicy
		barrierSyncs uint64
	}{
		{SyncNone, 0},
		{SyncFlush, 0},
		{SyncFull, 1},
	} {
		dir := filepath.Join(t.TempDir(), "wal")
		w, err := Open(dir, Options{Sync: tc.policy})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(&Record{Type: RecInsert, Txn: 1, Table: "t", After: []byte("x")}); err != nil {
			t.Fatalf("policy %d: %v", tc.policy, err)
		}
		before := w.Stats()
		if err := w.PageBarrier(); err != nil {
			t.Fatal(err)
		}
		after := w.Stats()
		if after.Flushes != before.Flushes+1 || after.Syncs != before.Syncs+tc.barrierSyncs {
			t.Fatalf("policy %d: page barrier flushed %d and fsynced %d times, want 1 and %d",
				tc.policy, after.Flushes-before.Flushes, after.Syncs-before.Syncs, tc.barrierSyncs)
		}
		recs, err := ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("policy %d: %d records in the segment after the page barrier, want 1", tc.policy, len(recs))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := w.Stats().Syncs; got != after.Syncs+1 {
			t.Fatalf("policy %d: Close added %d to wal_syncs_total, want 1", tc.policy, got-after.Syncs)
		}
	}
}

func TestReaderEmptyDir(t *testing.T) {
	recs, err := ReadAll(filepath.Join(t.TempDir(), "nonexistent"))
	if err != nil || recs != nil {
		t.Fatalf("empty dir: %v, %v", recs, err)
	}
}
