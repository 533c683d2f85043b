package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"opdelta/internal/fault"
	"opdelta/internal/obs"
)

// SyncPolicy controls durability of commits.
type SyncPolicy uint8

// Durability levels. SyncFlush is the zero value and therefore the
// default.
const (
	// SyncFlush flushes to the OS on every commit. Survives process
	// crashes but not power loss. The default.
	SyncFlush SyncPolicy = iota
	// SyncNone leaves records in the process buffer until rotation or
	// close. Fastest; loses recent commits on a crash.
	SyncNone
	// SyncFull fsyncs on every commit, like a production OLTP system.
	SyncFull
)

// Options configures a Writer.
type Options struct {
	// SegmentSize is the byte threshold after which the active segment
	// is closed and a new one started. Default 16 MiB.
	SegmentSize int64
	// Sync is the commit durability policy. Default SyncFlush.
	Sync SyncPolicy
	// ArchiveDir, when non-empty, enables archive mode: closed segments
	// are copied there at rotation time (the paper's "archiving turned
	// on": redo logs are not recycled and continue to accumulate).
	ArchiveDir string
	// FS routes all file I/O; nil means the real filesystem. The
	// fault-injection harness substitutes a fault.SimFS here.
	FS fault.FS
	// Obs receives the writer's metrics (wal_* counters, fsync latency
	// and group-commit cohort histograms). Nil selects a private
	// registry, keeping independent writers' counters isolated.
	Obs *obs.Registry
	// ObsLabels are base labels stamped on every wal_* series, e.g. a db
	// label when several engines share one registry.
	ObsLabels []obs.Label
}

const segSuffix = ".seg"

func segName(idx uint64) string { return fmt.Sprintf("wal-%08d%s", idx, segSuffix) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), segSuffix), 10, 64)
	return n, err == nil
}

// Writer appends framed records to segment files in a directory. It is
// safe for concurrent use.
type Writer struct {
	mu      sync.Mutex
	dir     string
	opts    Options
	fs      fault.FS
	f       fault.File
	bw      *bufio.Writer
	segIdx  uint64
	segSize int64
	nextLSN LSN

	// Group-commit bookkeeping. lastLSN is the newest appended record;
	// flushedLSN / durableLSN are high-water marks of what has reached
	// the OS / the disk. syncing marks a group-commit leader whose fsync
	// is in flight with mu released; cohort members wait on syncCond.
	lastLSN    LSN
	flushedLSN LSN
	durableLSN LSN
	syncing    bool
	syncCond   *sync.Cond

	// Counters and histograms are obs registry series; incrementing an
	// atomic counter under w.mu adds no synchronization the append path
	// doesn't already pay. The flush step and the fsync step
	// (flushLocked, syncLocked) are the only places that count flushes
	// and fsyncs.
	appended, flushes, syncsDone, groupSyncs, rotations *obs.Counter
	fsyncSeconds                                        *obs.Histogram
	cohortSize                                          *obs.Histogram
}

func (w *Writer) initMetrics() {
	reg := w.opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ls := w.opts.ObsLabels
	w.appended = reg.Counter("wal_appends_total", ls...)
	w.flushes = reg.Counter("wal_flushes_total", ls...)
	w.syncsDone = reg.Counter("wal_syncs_total", ls...)
	w.groupSyncs = reg.Counter("wal_group_syncs_total", ls...)
	w.rotations = reg.Counter("wal_rotations_total", ls...)
	w.fsyncSeconds = reg.Histogram("wal_fsync_seconds", obs.DurationBuckets, ls...)
	w.cohortSize = reg.Histogram("wal_group_commit_cohort_records", obs.CountBuckets, ls...)
}

// Open creates or resumes the log in dir. When resuming, the next LSN
// continues after the highest LSN found in existing segments.
func Open(dir string, opts Options) (*Writer, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = 16 << 20
	}
	fsys := fault.OrOS(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opts.ArchiveDir != "" {
		if err := fsys.MkdirAll(opts.ArchiveDir, 0o755); err != nil {
			return nil, err
		}
	}
	w := &Writer{dir: dir, opts: opts, fs: fsys, nextLSN: 1}
	w.syncCond = sync.NewCond(&w.mu)
	w.initMetrics()
	segs, err := ListSegmentsFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		// Resume after the last valid record in the log. LSNs increase
		// across segments, so the newest segment normally holds the max
		// — but a crash can leave the newest segment empty or entirely
		// torn (created, never synced), in which case we keep scanning
		// backwards so the resumed LSN sequence never collides with
		// records in older segments.
		last := segs[len(segs)-1]
		_, validLen, err := scanSegment(fsys, filepath.Join(dir, segName(last)))
		if err != nil {
			return nil, err
		}
		for i := len(segs) - 1; i >= 0; i-- {
			maxLSN, _, err := scanSegment(fsys, filepath.Join(dir, segName(segs[i])))
			if err != nil {
				return nil, err
			}
			if maxLSN > 0 {
				w.nextLSN = maxLSN + 1
				break
			}
		}
		// Truncate any torn tail of the newest segment.
		if err := fsys.Truncate(filepath.Join(dir, segName(last)), validLen); err != nil {
			return nil, err
		}
		w.segIdx = last
		f, err := fsys.OpenFile(filepath.Join(dir, segName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		w.f = f
		w.segSize = validLen
		w.bw = bufio.NewWriterSize(f, 1<<16)
		// Everything already in the segment files predates this writer's
		// buffer, so the durability marks start at the resumed position.
		w.lastLSN = w.nextLSN - 1
		w.flushedLSN = w.lastLSN
		w.durableLSN = w.lastLSN
		return w, nil
	}
	if err := w.openSegmentLocked(1); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Writer) openSegmentLocked(idx uint64) error {
	f, err := w.fs.OpenFile(filepath.Join(w.dir, segName(idx)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.segIdx = idx
	w.segSize = 0
	return nil
}

// framePool recycles per-call frame buffers so concurrent appenders can
// serialize records outside the writer mutex without allocating.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

var errClosed = errors.New("wal: writer closed")

// Append frames r, assigns it the next LSN (overwriting r.LSN), and
// buffers it. It makes nothing durable, whatever the record's type:
// WaitDurable applies the sync policy. A commit appends its record,
// releases its locks, then waits for durability — early lock release.
// Correctness rests on the single-log ordering invariant: a transaction
// that observed this one's writes appends its own commit record later,
// so its record becoming durable implies this one's already is.
func (w *Writer) Append(r *Record) (LSN, error) {
	// Frame outside the mutex: copying the before/after images is the
	// bulk of an append, and doing it under w.mu turns the log into the
	// bottleneck for parallel appliers. Only the LSN (assigned once
	// ordered, below) is stamped inside the critical section.
	bufp := framePool.Get().(*[]byte)
	frame := Frame((*bufp)[:0], r)
	*bufp = frame
	defer framePool.Put(bufp)
	// Unlock via defer: the fault-injection filesystem aborts I/O by
	// panicking, and a mutex left locked by an unwinding appender would
	// wedge every other transaction in the process.
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, errClosed
	}
	r.LSN = w.nextLSN
	w.nextLSN++
	PatchLSN(frame, r.LSN)
	if _, err := w.bw.Write(frame); err != nil {
		return 0, err
	}
	w.appended.Inc()
	w.lastLSN = r.LSN
	w.segSize += int64(len(frame))
	if w.segSize >= w.opts.SegmentSize {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return r.LSN, nil
}

// flushLocked is the flush step: it pushes the buffer to the OS and
// moves the flushed mark to the newest appended record.
func (w *Writer) flushLocked() error {
	w.flushes.Inc()
	if err := w.bw.Flush(); err != nil {
		return err
	}
	w.flushedLSN = w.lastLSN
	return nil
}

// syncLocked is the fsync step: it fsyncs the active segment up to the
// flushed mark, feeds the latency and cohort histograms (the cohort is
// the number of records this fsync makes durable; 1 means group commit
// bought nothing), counts the fsync and moves the durable mark. With
// release set it drops w.mu for the fsync itself, so appenders keep
// filling the buffer for the next cohort and latecomers queue on
// syncCond; rotation and Close keep w.mu, since they close the file
// next.
func (w *Writer) syncLocked(release bool) error {
	goal, f := w.flushedLSN, w.f
	covered := goal - w.durableLSN
	start := time.Now()
	var err error
	if release {
		w.syncing = true
		w.mu.Unlock()
		func() {
			// The deferred re-lock also runs when Sync panics (the
			// fault-injection crash path), so syncing can't stay stuck
			// and strand the cohort.
			defer func() {
				w.mu.Lock()
				w.syncing = false
				w.syncCond.Broadcast()
			}()
			err = f.Sync()
		}()
	} else {
		err = f.Sync()
	}
	w.fsyncSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		return err
	}
	if covered > 0 {
		w.cohortSize.Observe(float64(covered))
	}
	w.syncsDone.Inc()
	if goal > w.durableLSN {
		w.durableLSN = goal
	}
	return nil
}

// WaitDurable blocks until the record at lsn is as durable as the
// writer's policy promises: nothing for SyncNone, flushed to the OS for
// SyncFlush, fsynced for SyncFull. It is the one call that applies the
// policy. Concurrent callers form a cohort: the first becomes the
// leader and issues one flush+fsync covering every record appended so
// far, so N committers pay one fsync between them (group commit)
// instead of one each.
func (w *Writer) WaitDurable(lsn LSN) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch w.opts.Sync {
	case SyncNone:
		return nil
	case SyncFlush:
		if w.flushedLSN >= lsn {
			return nil
		}
		if w.bw == nil {
			return errClosed
		}
		return w.flushLocked()
	default:
		return w.syncToLocked(lsn)
	}
}

// syncToLocked returns once every record with LSN <= target is fsynced,
// leading a sync round when none is in flight. The caller holds w.mu.
func (w *Writer) syncToLocked(target LSN) error {
	for w.durableLSN < target {
		if w.bw == nil {
			return errClosed
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		// Lead one sync round for everything appended so far.
		if err := w.flushLocked(); err != nil {
			return err
		}
		w.groupSyncs.Inc()
		// A rotation or Close can fsync and close the segment under the
		// leader; its own fsync then fails, but the durable mark already
		// covers the target.
		if err := w.syncLocked(true); err != nil && w.durableLSN < target {
			return err
		}
	}
	return nil
}

// Flush pushes buffered records to the OS.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bw == nil {
		return nil
	}
	return w.flushLocked()
}

// Sync flushes and fsyncs the active segment, whatever the policy. When
// everything appended is already durable — the common case right after
// a group commit — it returns without touching the file.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bw == nil {
		return nil
	}
	return w.syncToLocked(w.lastLSN)
}

// PageBarrier is the write-ahead barrier a buffer pool runs before a
// dirty page reaches its file: every record appended so far must be at
// least as durable as the page will be. At SyncFull that takes an
// fsync — a flush only reaches the OS, so a power loss after the page
// write could keep a page whose log records were lost, exactly the
// ordering WAL exists to prevent. The other policies promise only to
// survive a process crash, which a flush covers.
func (w *Writer) PageBarrier() error {
	if w.opts.Sync == SyncFull {
		return w.Sync()
	}
	return w.Flush()
}

func (w *Writer) rotateLocked() error {
	if err := w.flushLocked(); err != nil {
		return err
	}
	if err := w.syncLocked(false); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.rotations.Inc()
	closed := w.segIdx
	if w.opts.ArchiveDir != "" {
		src := filepath.Join(w.dir, segName(closed))
		dst := filepath.Join(w.opts.ArchiveDir, segName(closed))
		if err := copyFile(w.fs, src, dst); err != nil {
			return fmt.Errorf("wal: archive segment %d: %w", closed, err)
		}
	}
	return w.openSegmentLocked(closed + 1)
}

// Rotate closes the active segment (archiving it if enabled) and starts
// a new one, regardless of size. Extraction tests use this to make
// recent records visible to the archive reader.
func (w *Writer) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rotateLocked()
}

// Recycle deletes closed segments with index < keepFrom from the live
// log directory. In archive mode they remain available in ArchiveDir.
// Callers must only recycle after a checkpoint has made the segments
// unnecessary for recovery.
func (w *Writer) Recycle(keepFrom uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	segs, err := ListSegmentsFS(w.fs, w.dir)
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if idx < keepFrom && idx != w.segIdx {
			if err := w.fs.Remove(filepath.Join(w.dir, segName(idx))); err != nil {
				return err
			}
		}
	}
	return nil
}

// ActiveSegment returns the index of the segment currently appended to.
func (w *Writer) ActiveSegment() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segIdx
}

// NextLSN returns the LSN the next Append will assign.
func (w *Writer) NextLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// CommitVisibleLSN returns the newest LSN the writer's durability policy
// considers settled: the last appended record under SyncNone (nothing is
// ever promised beyond the process buffer), the OS-flushed high-water
// mark under SyncFlush, and the fsynced mark under SyncFull. Snapshot
// readers pin their read horizon here so a snapshot never observes a
// commit the policy could still lose — "last durable commit" means the
// same thing to a snapshot as it does to WaitDurable.
func (w *Writer) CommitVisibleLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch w.opts.Sync {
	case SyncNone:
		return w.lastLSN
	case SyncFlush:
		return w.flushedLSN
	default:
		return w.durableLSN
	}
}

// Stats is a snapshot of writer counters. GroupSyncs counts sync rounds
// led on behalf of a WaitDurable cohort; Syncs counts fsyncs issued, so
// Syncs well below the number of commits is group commit working.
type Stats struct {
	Appended, Flushes, Syncs, GroupSyncs, Rotations uint64
}

// Stats returns writer counters (read back from the obs registry
// series, so Stats and a /metrics scrape can never disagree).
func (w *Writer) Stats() Stats {
	return Stats{Appended: w.appended.Value(), Flushes: w.flushes.Value(), Syncs: w.syncsDone.Value(),
		GroupSyncs: w.groupSyncs.Value(), Rotations: w.rotations.Value()}
}

// Close flushes, syncs and closes the active segment.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := w.flushLocked(); err != nil {
		return err
	}
	if err := w.syncLocked(false); err != nil {
		return err
	}
	err := w.f.Close()
	w.f, w.bw = nil, nil
	// Wake any cohort members so they observe the closed writer instead
	// of sleeping forever.
	w.syncCond.Broadcast()
	return err
}

// ListSegments returns the segment indexes present in dir, ascending.
func ListSegments(dir string) ([]uint64, error) {
	return ListSegmentsFS(fault.OS, dir)
}

// ListSegmentsFS is ListSegments through an injectable filesystem.
func ListSegmentsFS(fsys fault.FS, dir string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if idx, ok := parseSegName(e.Name()); ok {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// SegmentPath returns the path of segment idx inside dir.
func SegmentPath(dir string, idx uint64) string { return filepath.Join(dir, segName(idx)) }

// scanSegment returns the max LSN and the byte length of the valid
// prefix of the segment at path.
func scanSegment(fsys fault.FS, path string) (LSN, int64, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var max LSN
	pos := 0
	for pos < len(data) {
		r, n, err := Unframe(data[pos:])
		if err != nil {
			break // torn tail
		}
		if r.LSN > max {
			max = r.LSN
		}
		pos += n
	}
	return max, int64(pos), nil
}

func copyFile(fsys fault.FS, src, dst string) error {
	in, err := fsys.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := fsys.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
