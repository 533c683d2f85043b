package transport

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"opdelta/internal/obs"
)

func TestLinkChargesLatencyAndBandwidth(t *testing.T) {
	var slept time.Duration
	l := &Link{Latency: time.Millisecond, BandwidthBps: 1000, Sleep: func(d time.Duration) { slept += d }}
	l.Send(500) // 1ms latency + 500ms transfer
	want := time.Millisecond + 500*time.Millisecond
	if slept != want {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	st := l.Stats()
	if st.Messages != 1 || st.BytesSent != 500 || st.TimeCharged != want {
		t.Fatalf("stats = %+v", st)
	}
}

func TestZeroLinkIsFree(t *testing.T) {
	var l Link
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			l.Send(1 << 20)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("zero link must not sleep")
	}
	if l.Stats().Messages != 1000 {
		t.Fatalf("stats = %+v", l.Stats())
	}
}

func TestLAN10MbShape(t *testing.T) {
	l := LAN10Mb()
	// 1 MB at 10 Mb/s is 0.8s of virtual transfer time.
	c := l.cost(1_000_000)
	if c < 700*time.Millisecond || c > 900*time.Millisecond {
		t.Fatalf("1MB over 10Mb/s = %v", c)
	}
}

func TestQueueFIFOAndAck(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := 0; i < 10; i++ {
		if err := q.Append([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		msg, err := q.Next()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("msg-%d", i); string(msg) != want {
			t.Fatalf("msg = %q, want %q", msg, want)
		}
	}
	if err := q.Ack(); err != nil {
		t.Fatal(err)
	}
	// Unacked reads are replayed after Reset (consumer restart).
	q.Next()
	q.Next()
	q.Reset()
	msg, err := q.Next()
	if err != nil || string(msg) != "msg-5" {
		t.Fatalf("after reset: %q, %v", msg, err)
	}
}

// TestQueueDepthFollowsReadCursor: depth is what was appended but not
// yet read, so it rises with Append, falls with Next and ignores Ack —
// a consumer that keeps its position elsewhere never acks — and the
// transport_queue_depth_bytes gauge reads the same value.
func TestQueueDepthFollowsReadCursor(t *testing.T) {
	reg := obs.NewRegistry()
	q, err := OpenQueueObs(nil, t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	check := func(step string, want int64) {
		t.Helper()
		if got := q.Depth(); got != want {
			t.Fatalf("%s: Depth = %d, want %d", step, got, want)
		}
		if m := reg.Snapshot().Get("transport_queue_depth_bytes"); m == nil || m.Value != float64(want) {
			t.Fatalf("%s: transport_queue_depth_bytes = %+v, want %d", step, m, want)
		}
	}
	check("empty", 0)
	var want int64
	for _, msg := range []string{"a", "bb", "ccc"} {
		if err := q.Append([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		want += 8 + int64(len(msg)) // frame header + payload
		check("append "+msg, want)
	}
	for _, msg := range []string{"a", "bb"} {
		if _, err := q.Next(); err != nil {
			t.Fatal(err)
		}
		want -= 8 + int64(len(msg))
		check("next "+msg, want)
	}
	if err := q.Ack(); err != nil {
		t.Fatal(err)
	}
	check("ack", want)
	if _, err := q.Next(); err != nil {
		t.Fatal(err)
	}
	check("drained", 0)
}

func TestQueueSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	q, _ := OpenQueue(dir)
	q.Append([]byte("a"))
	q.Append([]byte("b"))
	q.Append([]byte("c"))
	q.Next()
	q.Ack()
	q.Close()

	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	msg, err := q2.Next()
	if err != nil || string(msg) != "b" {
		t.Fatalf("reopened Next = %q, %v (at-least-once from last ack)", msg, err)
	}
	q2.Next()
	if _, err := q2.Next(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("drained queue: %v", err)
	}
}

func TestQueueToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	q, _ := OpenQueue(dir)
	q.Append([]byte("whole"))
	q.Close()
	// Simulate a producer crash mid-append.
	f, _ := os.OpenFile(filepath.Join(dir, queueDataFile), os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{9, 0, 0, 0}) // claims 9 bytes, delivers none
	f.Close()

	q2, _ := OpenQueue(dir)
	defer q2.Close()
	msg, err := q2.Next()
	if err != nil || string(msg) != "whole" {
		t.Fatalf("first: %q, %v", msg, err)
	}
	if _, err := q2.Next(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("torn tail should read as empty, got %v", err)
	}
}

func TestQueueDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	q, _ := OpenQueue(dir)
	q.Append([]byte("payload"))
	q.Close()
	data, _ := os.ReadFile(filepath.Join(dir, queueDataFile))
	data[len(data)-1] ^= 0xff
	os.WriteFile(filepath.Join(dir, queueDataFile), data, 0o644)

	q2, _ := OpenQueue(dir)
	defer q2.Close()
	if _, err := q2.Next(); err == nil || errors.Is(err, ErrEmpty) {
		t.Fatalf("corruption must surface an error, got %v", err)
	}
}

func TestShipFile(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "delta.dat")
	payload := bytes.Repeat([]byte("d"), 4096)
	os.WriteFile(src, payload, 0o644)
	var virt time.Duration
	link := &Link{Latency: time.Millisecond, BandwidthBps: 1 << 20, Sleep: func(d time.Duration) { virt += d }}
	dst := filepath.Join(dir, "staging", "delta.dat")
	n, err := ShipFile(link, src, dst)
	if err != nil || n != 4096 {
		t.Fatalf("ship: %d, %v", n, err)
	}
	got, _ := os.ReadFile(dst)
	if !bytes.Equal(got, payload) {
		t.Fatal("shipped file corrupted")
	}
	if virt == 0 {
		t.Fatal("link not charged")
	}
}

// TestLinkConcurrentSenders hammers one Link from many goroutines with
// an injected (also concurrent) sleep and checks the counters account
// for every byte and every virtual nanosecond exactly. Run under
// -race in CI, this is the latency/bandwidth model's thread-safety
// proof.
func TestLinkConcurrentSenders(t *testing.T) {
	var mu sync.Mutex
	var virtual time.Duration
	l := &Link{
		Latency:      time.Millisecond,
		BandwidthBps: 1_000_000,
		Sleep: func(d time.Duration) {
			mu.Lock()
			virtual += d
			mu.Unlock()
		},
	}
	const (
		senders = 16
		sends   = 200
		size    = 1000 // 1ms transfer at 1 MB/s
	)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sends; i++ {
				l.Send(size)
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Messages != senders*sends {
		t.Errorf("Messages = %d, want %d", st.Messages, senders*sends)
	}
	if st.BytesSent != senders*sends*size {
		t.Errorf("BytesSent = %d, want %d", st.BytesSent, senders*sends*size)
	}
	per := l.cost(size)
	if want := time.Duration(senders*sends) * per; st.TimeCharged != want {
		t.Errorf("TimeCharged = %v, want %v", st.TimeCharged, want)
	}
	if virtual != st.TimeCharged {
		t.Errorf("slept %v, charged %v — Sleep calls and counters disagree", virtual, st.TimeCharged)
	}
}

// TestQueueForEach: ForEach scans every complete frame — acked,
// consumed, and unconsumed alike — without moving the cursor.
func TestQueueForEach(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := 0; i < 7; i++ {
		if err := q.Append([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Consume and ack a prefix; ForEach must still see it.
	for i := 0; i < 3; i++ {
		q.Next()
	}
	if err := q.Ack(); err != nil {
		t.Fatal(err)
	}
	cursor := q.ReadPos()
	var got []string
	if err := q.ForEach(func(m []byte) error {
		got = append(got, string(m))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("ForEach saw %d messages, want 7: %v", len(got), got)
	}
	for i, m := range got {
		if want := fmt.Sprintf("m%d", i); m != want {
			t.Errorf("message %d = %q, want %q", i, m, want)
		}
	}
	if q.ReadPos() != cursor {
		t.Errorf("ForEach moved the cursor: %d -> %d", cursor, q.ReadPos())
	}
	// A fn error stops the scan and propagates.
	stop := errors.New("stop")
	n := 0
	if err := q.ForEach(func([]byte) error {
		n++
		if n == 2 {
			return stop
		}
		return nil
	}); !errors.Is(err, stop) {
		t.Fatalf("ForEach error = %v, want stop", err)
	}
	if n != 2 {
		t.Fatalf("fn ran %d times after error, want 2", n)
	}
}
