package transport

import (
	"errors"
	"fmt"
	"testing"

	"opdelta/internal/fault"
)

// appendN enqueues n distinct messages and returns them.
func appendN(t *testing.T, q *Queue, n int) [][]byte {
	t.Helper()
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("message-%03d", i))
		if err := q.Append(msgs[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return msgs
}

// TestAckSurvivesCrash proves the fixed Ack path: the acknowledged
// position is durable across power loss, so a rebooted consumer resumes
// exactly at the first unacknowledged message — never earlier, never
// later.
func TestAckSurvivesCrash(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		fs := fault.NewSimFS(seed)
		q, err := OpenQueueFS(fs, "/q")
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		msgs := appendN(t, q, 5)
		for i := 0; i < 3; i++ {
			if _, err := q.Next(); err != nil {
				t.Fatalf("seed %d: next %d: %v", seed, i, err)
			}
		}
		if err := q.Ack(); err != nil {
			t.Fatalf("seed %d: ack: %v", seed, err)
		}
		want := q.AckPos()
		if want == 0 {
			t.Fatalf("seed %d: ack position still 0 after consuming", seed)
		}

		q2, err := OpenQueueFS(fs.Reboot(), "/q")
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		if got := q2.AckPos(); got != want {
			t.Fatalf("seed %d: ack position lost across crash: got %d want %d", seed, got, want)
		}
		for i := 3; i < 5; i++ {
			msg, err := q2.Next()
			if err != nil {
				t.Fatalf("seed %d: redelivery %d: %v", seed, i, err)
			}
			if string(msg) != string(msgs[i]) {
				t.Fatalf("seed %d: redelivery %d: got %q want %q", seed, i, msg, msgs[i])
			}
		}
		if _, err := q2.Next(); !errors.Is(err, ErrEmpty) {
			t.Fatalf("seed %d: expected empty after redelivery, got %v", seed, err)
		}
	}
}

// TestAckWithoutFsyncLosesPosition demonstrates the bug the Ack fsync
// fixes: rename alone journals only metadata, so a temp file that was
// never synced can be published empty by a power loss and the consumer
// position silently rewinds to zero. The unsynced path must lose the
// position on at least one seed of the sweep (it loses it on most),
// while the production Ack — the identical flow plus the pre-rename
// fsync — never does. This is the test that fails on the pre-fix code.
func TestAckWithoutFsyncLosesPosition(t *testing.T) {
	run := func(seed int64, sync bool) (survived bool) {
		fs := fault.NewSimFS(seed)
		q, err := OpenQueueFS(fs, "/q")
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		appendN(t, q, 4)
		for i := 0; i < 2; i++ {
			if _, err := q.Next(); err != nil {
				t.Fatalf("seed %d: next: %v", seed, err)
			}
		}
		q.mu.Lock()
		err = q.ackLocked(sync)
		q.mu.Unlock()
		if err != nil {
			t.Fatalf("seed %d: ack(sync=%v): %v", seed, sync, err)
		}
		want := q.AckPos()
		q2, err := OpenQueueFS(fs.Reboot(), "/q")
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		return q2.AckPos() == want
	}

	lost := 0
	for seed := int64(1); seed <= 40; seed++ {
		if !run(seed, false) {
			lost++
		}
		if !run(seed, true) {
			t.Fatalf("seed %d: synced Ack lost the position across crash", seed)
		}
	}
	if lost == 0 {
		t.Fatal("rename-without-fsync never lost the ack position; " +
			"either the simulator stopped modeling the window or the test is vacuous")
	}
	t.Logf("unsynced ack lost position on %d/40 seeds; synced ack on 0/40", lost)
}

// TestTornTailTruncatedOnReopen crashes a producer at every filesystem
// operation of a 3-append workload (with intra-write tearing enabled for
// the data file) and checks that reopening heals the tail: whatever
// complete frames survived are CRC-clean and redeliverable, a fresh
// append lands on a frame boundary, and the sentinel message comes out
// intact. Before the truncate-on-open fix, post-crash appends could land
// behind torn garbage and corrupt the stream mid-file.
func TestTornTailTruncatedOnReopen(t *testing.T) {
	workload := func(fs *fault.SimFS) {
		q, err := OpenQueueFS(fs, "/q")
		if err != nil {
			return // crash during open: nothing more to do
		}
		for i := 0; i < 3; i++ {
			if q.Append([]byte(fmt.Sprintf("payload-%d-%s", i, string(make([]byte, 100))))) != nil {
				return
			}
		}
		q.Close()
	}

	// Count the clean workload's ops so the sweep covers every one.
	clean := fault.NewSimFS(1)
	workload(clean)
	total := clean.Ops()
	if total == 0 {
		t.Fatal("clean workload performed no filesystem operations")
	}

	for op := uint64(1); op <= total; op++ {
		fs := fault.NewSimFS(int64(op) * 31)
		fs.SetScript(&fault.Script{
			CrashOp:  op,
			TornTail: func(string) bool { return true },
		})
		if !fault.RunToCrash(func() { workload(fs) }) {
			t.Fatalf("crash at op %d/%d never fired", op, total)
		}

		q, err := OpenQueueFS(fs.Reboot(), "/q")
		if err != nil {
			t.Fatalf("op %d: reopen after crash: %v", op, err)
		}
		survivors := 0
		for {
			_, err := q.Next()
			if errors.Is(err, ErrEmpty) {
				break
			}
			if err != nil {
				t.Fatalf("op %d: surviving frame %d corrupt: %v", op, survivors, err)
			}
			survivors++
		}
		if survivors > 3 {
			t.Fatalf("op %d: %d survivors from 3 appends", op, survivors)
		}
		sentinel := []byte("post-crash-sentinel")
		if err := q.Append(sentinel); err != nil {
			t.Fatalf("op %d: post-crash append: %v", op, err)
		}
		msg, err := q.Next()
		if err != nil {
			t.Fatalf("op %d: read sentinel after %d survivors: %v", op, survivors, err)
		}
		if string(msg) != string(sentinel) {
			t.Fatalf("op %d: sentinel corrupted: got %q", op, msg)
		}
	}
}

// TestAppendBatchTornAtEveryByte cuts the single write of an AppendBatch
// at every byte — power loss with the write partly on disk — and checks
// that what survives is a prefix of the batch's complete frames on which
// everything that reads the file agrees: the reopen trims the torn frame
// and resumes appends at the frame boundary, Next delivers exactly the
// surviving messages, and ForEach (the replication server's dedup
// recovery) sees the same ones.
func TestAppendBatchTornAtEveryByte(t *testing.T) {
	prior := [][]byte{[]byte("prior-0"), []byte("prior-1")}
	batch := [][]byte{[]byte("batch-0"), []byte("x"), []byte("batch-2-" + string(make([]byte, 300))), []byte("b"), []byte("batch-4")}

	full := fault.NewSimFS(1)
	q, err := OpenQueueFS(full, "/q")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range prior {
		if err := q.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	base := int(q.endPos.Load())
	if err := q.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := q.appends.Value(); got != uint64(len(prior)+len(batch)) {
		t.Fatalf("appends counter = %d, want %d messages", got, len(prior)+len(batch))
	}
	image, err := full.ReadFile("/q/" + queueDataFile)
	if err != nil {
		t.Fatal(err)
	}

	for cut := base; cut <= len(image); cut++ {
		// The frames of the batch wholly inside the cut, and where they end.
		survivors, boundary := 0, base
		for _, m := range batch {
			if boundary+8+len(m) > cut {
				break
			}
			boundary += 8 + len(m)
			survivors++
		}
		want := append(append([][]byte(nil), prior...), batch[:survivors]...)

		fs := fault.NewSimFS(int64(cut))
		if err := fs.MkdirAll("/q", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/q/"+queueDataFile, image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := OpenQueueFS(fs, "/q")
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if got := int(q.endPos.Load()); got != boundary {
			t.Fatalf("cut %d: reopen resumes appends at %d, want frame boundary %d", cut, got, boundary)
		}
		var seen [][]byte
		if err := q.ForEach(func(msg []byte) error {
			seen = append(seen, append([]byte(nil), msg...))
			return nil
		}); err != nil {
			t.Fatalf("cut %d: ForEach: %v", cut, err)
		}
		sentinel := [][]byte{[]byte("after-0"), []byte("after-1")}
		if err := q.AppendBatch(sentinel); err != nil {
			t.Fatalf("cut %d: post-crash append: %v", cut, err)
		}
		for i, w := range append(want, sentinel...) {
			msg, err := q.Next()
			if err != nil {
				t.Fatalf("cut %d: Next %d: %v", cut, i, err)
			}
			if string(msg) != string(w) {
				t.Fatalf("cut %d: Next %d = %q, want %q", cut, i, msg, w)
			}
			if i < len(want) && string(seen[i]) != string(w) {
				t.Fatalf("cut %d: ForEach %d = %q, want %q", cut, i, seen[i], w)
			}
		}
		if len(seen) != len(want) {
			t.Fatalf("cut %d: ForEach saw %d messages, Next %d", cut, len(seen), len(want))
		}
		if _, err := q.Next(); !errors.Is(err, ErrEmpty) {
			t.Fatalf("cut %d: expected empty, got %v", cut, err)
		}
	}
}

// failingWriteFile fails its next Write after landing half the bytes.
type failingWriteFile struct {
	fault.File
	fail bool
}

func (f *failingWriteFile) Write(b []byte) (int, error) {
	if !f.fail {
		return f.File.Write(b)
	}
	f.fail = false
	n, _ := f.File.Write(b[:len(b)/2])
	return n, errors.New("injected short write")
}

// TestAppendBatchFailedWriteLeavesNoTornBytes: a write that fails
// partway is cut back, so the next append does not land behind garbage.
func TestAppendBatchFailedWriteLeavesNoTornBytes(t *testing.T) {
	q, err := OpenQueueFS(fault.NewSimFS(1), "/q")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	fw := &failingWriteFile{File: q.data, fail: true}
	q.data = fw
	if err := q.AppendBatch([][]byte{[]byte("lost-0"), []byte("lost-1")}); err == nil {
		t.Fatal("short write went unreported")
	}
	if err := q.AppendBatch([][]byte{[]byte("second"), []byte("third")}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"first", "second", "third"} {
		msg, err := q.Next()
		if err != nil || string(msg) != want {
			t.Fatalf("Next = %q, %v; want %q", msg, err, want)
		}
	}
	if _, err := q.Next(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("expected empty, got %v", err)
	}
}
