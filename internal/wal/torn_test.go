package wal

import (
	"fmt"
	"testing"

	"opdelta/internal/fault"
)

// buildTornFixture writes nrec records into a single-segment log on a
// fresh SimFS and returns the filesystem, the raw segment bytes, and the
// byte offset where each record's frame starts (plus the end offset as a
// final entry).
func buildTornFixture(t *testing.T, nrec int) (*fault.SimFS, []byte, []int) {
	t.Helper()
	fs := fault.NewSimFS(1)
	w, err := Open("/wal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int{0}
	var buf []byte
	for i := 0; i < nrec; i++ {
		r := &Record{Type: RecInsert, Txn: uint64(i + 1), Table: "parts",
			Page: uint32(i), Slot: uint16(i),
			After: []byte(fmt.Sprintf("after-image-%02d", i))}
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		buf = Frame(buf[:0], r)
		bounds = append(bounds, bounds[len(bounds)-1]+len(buf))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(SegmentPath("/wal", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != bounds[len(bounds)-1] {
		t.Fatalf("segment is %d bytes, frames account for %d", len(data), bounds[len(bounds)-1])
	}
	return fs, data, bounds
}

// tornDir writes seg as the only segment of a fresh log directory.
func tornDir(t *testing.T, seg []byte) *fault.SimFS {
	t.Helper()
	fs := fault.NewSimFS(2)
	if err := fs.MkdirAll("/wal", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(SegmentPath("/wal", 1), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestTornTailEveryByteOffset truncates the final record at every byte
// offset — from losing the whole record to losing its last byte — and
// requires that (a) the reader returns exactly the intact prefix with no
// error, and (b) Open recovers: it truncates the torn tail, resumes the
// LSN sequence, and the next append lands cleanly.
func TestTornTailEveryByteOffset(t *testing.T) {
	const nrec = 4
	_, data, bounds := buildTornFixture(t, nrec)
	lastStart, end := bounds[nrec-1], bounds[nrec]
	for cut := lastStart; cut < end; cut++ {
		fs := tornDir(t, data[:cut])

		recs, err := ReadAllFS(fs, "/wal")
		if err != nil {
			t.Fatalf("cut %d: reader must stop cleanly at a torn tail: %v", cut, err)
		}
		if len(recs) != nrec-1 {
			t.Fatalf("cut %d: read %d records, want the %d intact ones", cut, len(recs), nrec-1)
		}
		for i, r := range recs {
			if r.LSN != LSN(i+1) || r.Txn != uint64(i+1) {
				t.Fatalf("cut %d: record %d corrupted: %+v", cut, i, r)
			}
		}

		w, err := Open("/wal", Options{FS: fs})
		if err != nil {
			t.Fatalf("cut %d: recovery open: %v", cut, err)
		}
		if got := w.NextLSN(); got != LSN(nrec) {
			t.Fatalf("cut %d: resumed at LSN %d, want %d", cut, got, nrec)
		}
		lsn, err := w.Append(&Record{Type: RecCommit, Txn: 99})
		if err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err = ReadAllFS(fs, "/wal")
		if err != nil {
			t.Fatalf("cut %d: re-read: %v", cut, err)
		}
		if len(recs) != nrec || recs[nrec-1].LSN != lsn || recs[nrec-1].Txn != 99 {
			t.Fatalf("cut %d: post-recovery log has %d records", cut, len(recs))
		}
	}
}

// TestCorruptFinalRecordEveryByte flips each byte of the final record in
// turn. Whatever the flipped byte hits — length field, CRC, or payload —
// the reader must surface only the intact prefix and recovery must
// truncate the bad tail.
func TestCorruptFinalRecordEveryByte(t *testing.T) {
	const nrec = 3
	_, data, bounds := buildTornFixture(t, nrec)
	lastStart, end := bounds[nrec-1], bounds[nrec]
	for off := lastStart; off < end; off++ {
		seg := append([]byte(nil), data...)
		seg[off] ^= 0xA5
		fs := tornDir(t, seg)

		recs, err := ReadAllFS(fs, "/wal")
		if err != nil {
			t.Fatalf("flip @%d: reader error on corrupt tail: %v", off, err)
		}
		if len(recs) != nrec-1 {
			t.Fatalf("flip @%d: read %d records, want %d", off, len(recs), nrec-1)
		}
		w, err := Open("/wal", Options{FS: fs})
		if err != nil {
			t.Fatalf("flip @%d: recovery open: %v", off, err)
		}
		if got := w.NextLSN(); got != LSN(nrec) {
			t.Fatalf("flip @%d: resumed at LSN %d, want %d", off, got, nrec)
		}
		w.Close()
	}
}

// TestCorruptMiddleRecordStopsThere documents the scan contract when
// corruption is *not* at the tail: the reader still stops at the first
// bad frame (it cannot resynchronize), surfacing only the prefix.
func TestCorruptMiddleRecordStopsThere(t *testing.T) {
	const nrec = 4
	_, data, bounds := buildTornFixture(t, nrec)
	seg := append([]byte(nil), data...)
	seg[bounds[1]+recHeaderLen] ^= 0xFF // corrupt record 2's payload
	fs := tornDir(t, seg)
	recs, err := ReadAllFS(fs, "/wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("read %d records past mid-log corruption, want 1", len(recs))
	}
}

// TestOpenResumesPastEmptySegments is the LSN-resume regression: a crash
// can leave the newest segment empty or entirely torn (created at
// rotation, never filled with a durable record). Open must keep scanning
// backwards so the resumed LSN continues after the newest real record
// instead of colliding with it.
func TestOpenResumesPastEmptySegments(t *testing.T) {
	_, data, _ := buildTornFixture(t, 3) // segment 1 holds LSN 1..3
	for _, tail := range [][]byte{
		nil,                                  // newest segment empty
		{0x01},                               // torn inside the frame header
		data[:7],                             // torn mid-header of its first record
		{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, // absurd length, incomplete
	} {
		fs := tornDir(t, data)
		if err := fs.WriteFile(SegmentPath("/wal", 2), tail, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open("/wal", Options{FS: fs})
		if err != nil {
			t.Fatalf("tail %x: open: %v", tail, err)
		}
		if got := w.NextLSN(); got != 4 {
			t.Fatalf("tail %x: resumed at LSN %d, want 4 (newest segment holds no records)", tail, got)
		}
		lsn, err := w.Append(&Record{Type: RecCommit, Txn: 50})
		if err != nil || lsn != 4 {
			t.Fatalf("tail %x: append: lsn=%d err=%v", tail, lsn, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadAllFS(fs, "/wal")
		if err != nil {
			t.Fatalf("tail %x: read all: %v", tail, err)
		}
		if len(recs) != 4 || recs[3].LSN != 4 {
			t.Fatalf("tail %x: %d records after resume", tail, len(recs))
		}
	}
}
