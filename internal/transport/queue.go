package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"opdelta/internal/fault"
	"opdelta/internal/obs"
)

// Queue is a file-backed at-least-once FIFO of byte messages. Producers
// Append; consumers Next and then Ack the consumed prefix. Ack position
// is persisted, so a crashed consumer re-reads from its last Ack —
// at-least-once delivery, the guarantee the paper's "persistent queues"
// transport provides.
type Queue struct {
	mu   sync.Mutex
	fs   fault.FS
	dir  string
	data fault.File
	// Positions are atomics so the registry's depth gauge can read them
	// at scrape time without the queue mutex; all writes still happen
	// under q.mu, exactly as before.
	readPos atomic.Int64 // next unread offset (volatile cursor)
	ackPos  atomic.Int64 // durable consumer position
	endPos  atomic.Int64 // append position (valid data length)

	// Metrics (private registry unless opened via OpenQueueObs). The
	// append/ack histograms time the whole durable operation, group
	// sync included, so they measure what a producer/consumer actually
	// waits.
	appends       *obs.Counter
	acks          *obs.Counter
	appendSeconds *obs.Histogram
	ackSeconds    *obs.Histogram

	// Group-sync state for AppendBatch: the data mutex is never held
	// across an fsync. writeSeq counts batch writes, syncedSeq the
	// durable prefix; a leader fsyncs for every appender that queued
	// behind it on syncCond, so shippers and consumers overlap with
	// durability.
	writeSeq  uint64
	syncedSeq uint64
	syncing   bool
	syncCond  *sync.Cond

	// ackMu serializes Ack's rewrite of the ack file, again without
	// holding mu across the fsync+rename.
	ackMu sync.Mutex
}

const (
	queueDataFile = "queue.dat"
	queueAckFile  = "queue.ack"
)

// OpenQueue opens (or creates) the queue in dir.
func OpenQueue(dir string) (*Queue, error) {
	return OpenQueueFS(fault.OS, dir)
}

// OpenQueueFS is OpenQueue through an injectable filesystem. Metrics
// land on a private registry; use OpenQueueObs to publish them.
func OpenQueueFS(fsys fault.FS, dir string) (*Queue, error) {
	return OpenQueueObs(fsys, dir, nil)
}

// OpenQueueObs opens the queue and registers its metrics — append/ack
// counters and latency histograms plus a depth-in-bytes gauge — on reg
// with the given base labels. reg nil selects a private registry.
func OpenQueueObs(fsys fault.FS, dir string, reg *obs.Registry, labels ...obs.Label) (*Queue, error) {
	fsys = fault.OrOS(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(filepath.Join(dir, queueDataFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	q := &Queue{fs: fsys, dir: dir, data: f}
	q.syncCond = sync.NewCond(&q.mu)
	ackRaw, err := fsys.ReadFile(filepath.Join(dir, queueAckFile))
	if err == nil && len(ackRaw) == 8 {
		q.ackPos.Store(int64(binary.LittleEndian.Uint64(ackRaw)))
	} else if err != nil && !errors.Is(err, os.ErrNotExist) {
		f.Close()
		return nil, err
	}
	q.readPos.Store(q.ackPos.Load())
	// A producer crash can leave a torn frame at the tail. Readers stop
	// there anyway, but a new producer would append *after* the torn
	// bytes and corrupt the stream mid-file, so cut the tail back to the
	// last complete frame before accepting appends.
	if err := q.truncateTornTail(); err != nil {
		f.Close()
		return nil, err
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	q.appends = reg.Counter("transport_queue_appends_total", labels...)
	q.acks = reg.Counter("transport_queue_acks_total", labels...)
	q.appendSeconds = reg.Histogram("transport_queue_append_seconds", obs.DurationBuckets, labels...)
	q.ackSeconds = reg.Histogram("transport_queue_ack_seconds", obs.DurationBuckets, labels...)
	reg.GaugeFunc("transport_queue_depth_bytes", func() float64 {
		return float64(q.Depth())
	}, labels...)
	return q, nil
}

// truncateTornTail trims queue.dat to its last complete frame boundary
// and records the valid length as the append position.
func (q *Queue) truncateTornTail() error {
	data, err := q.fs.ReadFile(filepath.Join(q.dir, queueDataFile))
	if err != nil {
		return err
	}
	valid := 0
	for valid+8 <= len(data) {
		l := int(binary.LittleEndian.Uint32(data[valid : valid+4]))
		if valid+8+l > len(data) {
			break
		}
		valid += 8 + l
	}
	q.endPos.Store(int64(valid))
	if valid == len(data) {
		return nil
	}
	return q.data.Truncate(int64(valid))
}

var queueCRC = crc32.MakeTable(crc32.Castagnoli)

// Append enqueues one message durably; see AppendBatch.
func (q *Queue) Append(msg []byte) error {
	return q.AppendBatch([][]byte{msg})
}

// AppendBatch enqueues msgs, in order, as one durable unit of work: all
// frames are built into one buffer, written with one Write and covered
// by one fsync, so a batch of n messages costs what one message does.
// It is not atomic — a crash mid-write leaves a prefix of the batch's
// frames (plus a torn one that the next open trims), which is the same
// state n single appends interrupted by the crash would leave. Every
// message is durable when AppendBatch returns nil; on a write error the
// file is cut back to its previous length so that no later append lands
// behind torn bytes.
//
// The write happens under the queue mutex, but the fsync does not:
// concurrent appenders form a cohort behind one leader's fsync (group
// sync), and readers proceed during it.
func (q *Queue) AppendBatch(msgs [][]byte) error {
	if len(msgs) == 0 {
		return nil
	}
	start := time.Now()
	size := 0
	for _, msg := range msgs {
		size += 8 + len(msg)
	}
	buf := make([]byte, 0, size)
	for _, msg := range msgs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msg)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(msg, queueCRC))
		buf = append(buf, msg...)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, err := q.data.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	if _, err := q.data.Write(buf); err != nil {
		// Best effort: if the cut fails too, the next open trims the tail.
		_ = q.data.Truncate(q.endPos.Load())
		return err
	}
	q.endPos.Add(int64(len(buf)))
	q.writeSeq++
	err := q.syncToLocked(q.writeSeq)
	if err == nil {
		q.appends.Add(uint64(len(msgs)))
		q.appendSeconds.ObserveDuration(time.Since(start))
	}
	return err
}

// syncToLocked returns once write seq is durable. Caller holds q.mu;
// the fsync itself runs with q.mu released so appends and reads keep
// flowing, and every appender queued meanwhile is covered by the next
// leader's fsync.
func (q *Queue) syncToLocked(seq uint64) error {
	for {
		if q.syncedSeq >= seq {
			return nil
		}
		if q.syncing {
			q.syncCond.Wait()
			continue
		}
		goal := q.writeSeq
		q.syncing = true
		f := q.data
		err := func() error {
			q.mu.Unlock()
			defer func() {
				q.mu.Lock()
				q.syncing = false
				q.syncCond.Broadcast()
			}()
			return f.Sync()
		}()
		if err != nil {
			return err
		}
		if goal > q.syncedSeq {
			q.syncedSeq = goal
		}
	}
}

// ErrEmpty reports that no unconsumed message is available.
var ErrEmpty = errors.New("transport: queue empty")

// Next returns the next unconsumed message without acknowledging it.
// Repeated calls advance through the queue; Ack makes progress durable.
func (q *Queue) Next() ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	readPos := q.readPos.Load()
	var hdr [8]byte
	n, err := q.data.ReadAt(hdr[:], readPos)
	if err == io.EOF || (err == nil && n < 8) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, ErrEmpty
	}
	if err != nil {
		return nil, err
	}
	l := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	msg := make([]byte, l)
	if _, err := q.data.ReadAt(msg, readPos+8); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrEmpty // torn tail: producer crashed mid-append
		}
		return nil, err
	}
	if crc32.Checksum(msg, queueCRC) != want {
		return nil, fmt.Errorf("transport: corrupt message at offset %d", readPos)
	}
	q.readPos.Store(readPos + 8 + int64(l))
	return msg, nil
}

// Ack durably records that every message returned by Next so far has
// been processed. The position is written to a temp file which is
// fsynced *before* the rename: rename alone only journals metadata, so
// without the fsync a power loss can publish an empty or torn ack file
// under the final name.
//
// The queue mutex is only held to snapshot and publish positions, never
// across the fsync+rename — concurrent producers and Next calls keep
// overlapping with the ack I/O (ackMu serializes ack writers instead).
func (q *Queue) Ack() error {
	start := time.Now()
	q.ackMu.Lock()
	defer q.ackMu.Unlock()
	pos := q.readPos.Load()
	if err := q.writeAckFile(pos, true); err != nil {
		return err
	}
	q.mu.Lock()
	if pos > q.ackPos.Load() {
		q.ackPos.Store(pos)
	}
	q.mu.Unlock()
	q.acks.Inc()
	q.ackSeconds.ObserveDuration(time.Since(start))
	return nil
}

// writeAckFile persists pos via temp file [+ fsync] + rename.
func (q *Queue) writeAckFile(pos int64, sync bool) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(pos))
	tmp := filepath.Join(q.dir, queueAckFile+".tmp")
	f, err := q.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf[:]); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return q.fs.Rename(tmp, filepath.Join(q.dir, queueAckFile))
}

// AckPos returns the durable consumer position (offset of the first
// unacknowledged byte).
func (q *Queue) AckPos() int64 { return q.ackPos.Load() }

// ReadPos returns the volatile cursor: the offset the next Next will
// read from, and the position the next Ack would persist.
func (q *Queue) ReadPos() int64 { return q.readPos.Load() }

// Depth returns the bytes appended but not yet read by Next — the
// consumer's backlog, also published as transport_queue_depth_bytes. It
// is measured from the read cursor, not the ack position, so a consumer
// that keeps its durable position elsewhere and never acks reads true.
func (q *Queue) Depth() int64 { return q.endPos.Load() - q.readPos.Load() }

// ForEach calls fn for every complete message in the queue, acked or
// not, without moving the consumer cursor. A restarting replication
// server uses it to rebuild per-source dedup state (highest seq ever
// enqueued) from the topic file itself — the queue is the durable
// record, so no side index can disagree with it. Iteration stops at
// the first fn error, which is returned.
func (q *Queue) ForEach(fn func(msg []byte) error) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	end := q.endPos.Load()
	var hdr [8]byte
	for pos := int64(0); pos < end; {
		if _, err := q.data.ReadAt(hdr[:], pos); err != nil {
			return err
		}
		l := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if pos+8+int64(l) > end {
			return nil // torn tail, same stop rule as Next
		}
		msg := make([]byte, l)
		if _, err := q.data.ReadAt(msg, pos+8); err != nil {
			return err
		}
		if crc32.Checksum(msg, queueCRC) != want {
			return fmt.Errorf("transport: corrupt message at offset %d", pos)
		}
		if err := fn(msg); err != nil {
			return err
		}
		pos += 8 + int64(l)
	}
	return nil
}

// Reset rewinds the volatile cursor to the last durable Ack (what a
// restarted consumer sees).
func (q *Queue) Reset() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.readPos.Store(q.ackPos.Load())
}

// Close releases the queue's file handle.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.data.Close()
}

// ShipFile copies the file at src to dst, charging the link for its
// size — the paper's "ftp the differential file" transport.
func ShipFile(link *Link, src, dst string) (int64, error) {
	return ShipFileFS(fault.OS, link, src, dst)
}

// ShipFileFS is ShipFile through an injectable filesystem.
func ShipFileFS(fsys fault.FS, link *Link, src, dst string) (int64, error) {
	fsys = fault.OrOS(fsys)
	data, err := fsys.ReadFile(src)
	if err != nil {
		return 0, err
	}
	if link != nil {
		link.Send(len(data))
	}
	if err := fsys.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return 0, err
	}
	if err := fsys.WriteFile(dst, data, 0o644); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}
