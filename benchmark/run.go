package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"opdelta/internal/obs"
)

// mark is the state of every counter the harness differences over a
// measured window, read at the window's two edges.
type mark struct {
	at       time.Time
	cpu      time.Duration // process user+sys
	reg      *obs.Snapshot
	mem      runtime.MemStats
	walBytes int64
	probes   probeCounts
	captured uint64
	applied  uint64 // ops the applier has acked (whole batches)
	applyTxn uint64 // warehouse transactions committed, one per op
}

type probeCounts struct {
	wireBytes, writeBlockNs                    int64
	fetches, emptyFetches, fetchNs, fetchedOps int64
}

func (p *probes) counts() probeCounts {
	return probeCounts{
		wireBytes: p.wireBytes.Load(), writeBlockNs: p.writeBlockNs.Load(),
		fetches: p.fetches.Load(), emptyFetches: p.emptyFetches.Load(),
		fetchNs: p.fetchNs.Load(), fetchedOps: p.fetchedOps.Load(),
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (s *stack) mark(traced bool) *mark {
	m := &mark{at: time.Now(), cpu: processCPU(), probes: s.pipe.probes.counts(),
		captured: s.oplog.Seq(), applied: s.appliedOps.Value(), applyTxn: s.applyTxns.Value()}
	if traced {
		// The registry snapshot and heap statistics cost tens of
		// microseconds of stopped world; only the traced window pays them.
		m.reg = s.reg.Snapshot()
		runtime.ReadMemStats(&m.mem)
		m.walBytes = dirBytes(s.src.WALDir()) + dirBytes(s.whDB.WALDir())
	}
	return m
}

// opLog is the per-statement record, indexed by op seq − 1. Each DML
// statement is exactly one op, so "applied counter ≥ seq" is the moment
// the statement's effects were durable at the warehouse.
type opLog struct {
	// ref is the freshness origin: commit time on a closed loop, due
	// time on an open one (unix ns).
	ref     []int64
	start   []int64 // when Capture.Exec was called
	done    []int64 // when it returned
	durable []int64 // when the observer saw the applied counter pass it
	rows    []int32 // rows the statement affected at the source
}

func newOpLog(n int) *opLog {
	return &opLog{ref: make([]int64, n), start: make([]int64, n), done: make([]int64, n),
		durable: make([]int64, n), rows: make([]int32, n)}
}

type querySample struct{ start, end int64 }

// load is the running clients: one writer, the reader where the workload
// has one, and the observer that turns the applied-ops counter into
// per-statement durable times.
// They outlive a pipeline restart, so several windows — each under its
// own pipeline — can be measured over one continuous stream.
type load struct {
	s     *stack
	sched *schedule
	ops   *opLog
	t0    time.Time

	stop, observerStop atomic.Bool
	wg                 sync.WaitGroup
	writerDone         chan struct{}

	// Written by one client goroutine each; read once it has exited.
	issued   int // statements the writer completed
	queries  []querySample
	depthMax int64 // topic queue depth high-water, bytes
	stmtErr  error // first statement the source refused
	readErr  error // first query the warehouse refused
}

// window is one measured stretch of a load.
type window struct {
	from, to *mark
}

func (w *window) contains(ns int64) bool {
	return ns >= w.from.at.UnixNano() && ns < w.to.at.UnixNano()
}

func (w *window) seconds() float64 { return w.to.at.Sub(w.from.at).Seconds() }

// startLoad starts the clients against the stack's running pipeline.
func (s *stack) startLoad(sched *schedule) *load {
	l := &load{s: s, sched: sched, ops: newOpLog(len(sched.stmts)), t0: time.Now(), writerDone: make(chan struct{})}
	l.wg.Add(2)
	go l.observe()
	go l.write()
	if s.spec.reader {
		l.wg.Add(1)
		go l.read()
	}
	return l
}

// observe stamps durable-at-warehouse times and samples the topic
// queue's depth.
func (l *load) observe() {
	defer l.wg.Done()
	s, durable := l.s, l.ops.durable
	last := s.appliedOps.Value()
	for tick := 0; ; tick++ {
		final := l.observerStop.Load()
		now := time.Now().UnixNano()
		cur := s.appliedOps.Value()
		for ; last < cur && int(last) < len(durable); last++ {
			durable[last] = now
		}
		if tick%40 == 0 {
			if t := s.topic.Load(); t != nil {
				if d := t.Q.Depth(); d > l.depthMax {
					l.depthMax = d
				}
			}
		}
		if final {
			return
		}
		time.Sleep(observerEvery)
	}
}

// write is the one OLTP client.
func (l *load) write() {
	defer l.wg.Done()
	defer close(l.writerDone)
	s, sched, ops := l.s, l.sched, l.ops
	open := s.spec.rate > 0
	lag := uint64(s.spec.lagBound)
	for i := 0; i < len(sched.stmts) && !l.stop.Load(); i++ {
		seq := uint64(i) + 1
		var ref int64
		if open {
			due := l.t0.Add(sched.due[i])
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			ref = due.UnixNano()
		} else {
			for seq-1-s.appliedOps.Value() > lag && !l.stop.Load() {
				time.Sleep(observerEvery)
			}
		}
		start := time.Now()
		r, err := s.capture.Exec(nil, sched.stmts[i])
		done := time.Now()
		if err != nil {
			l.stmtErr = fmt.Errorf("statement %d (%.60s): %w", i, sched.stmts[i], err)
			return
		}
		if got := s.oplog.Seq(); got != seq {
			l.stmtErr = fmt.Errorf("statement %d captured as op %d, want %d: one statement must be one op", i, got, seq)
			return
		}
		if !open {
			ref = done.UnixNano()
		}
		ops.ref[i], ops.start[i], ops.done[i], ops.rows[i] = ref, start.UnixNano(), done.UnixNano(), int32(r.RowsAffected)
		s.rec.Load().span("opdelta", "capture.exec", seq, start, done)
		l.issued = i + 1
	}
}

// read is the one OLAP client: a closed loop with no think time, on
// lock-free snapshot reads.
func (l *load) read() {
	defer l.wg.Done()
	s := l.s
	for q := 0; !l.stop.Load(); q++ {
		start := time.Now()
		tx := s.whDB.BeginSnapshot()
		_, _, err := s.whDB.Query(tx, l.sched.reads[q%len(l.sched.reads)])
		tx.Commit()
		end := time.Now()
		if err != nil {
			l.readErr = fmt.Errorf("reader query %d: %w", q, err)
			return
		}
		l.queries = append(l.queries, querySample{start.UnixNano(), end.UnixNano()})
		s.rec.Load().span("engine", "olap.query", 0, start, end)
	}
}

// measure lets the load run for warm, then marks a window of the given
// length. It returns early if the writer stops first.
func (l *load) measure(warm, length time.Duration, traced bool) *window {
	sleepUntil := func(t time.Time) {
		for {
			select {
			case <-l.writerDone: // statement error or schedule exhausted
				return
			default:
			}
			d := time.Until(t)
			if d <= 0 {
				return
			}
			time.Sleep(min(d, 5*time.Millisecond))
		}
	}
	sleepUntil(time.Now().Add(warm))
	w := &window{from: l.s.mark(traced)}
	sleepUntil(w.from.at.Add(length))
	w.to = l.s.mark(traced)
	select {
	case <-l.writerDone:
		if l.stmtErr == nil {
			// The pipeline outran the pre-generated stream, so part of the
			// window measured an idle system.
			l.stmtErr = fmt.Errorf("schedule of %d statements ran out before the window closed; raise the workload's maxOpsPerSec", len(l.sched.stmts))
		}
	default:
	}
	return w
}

// finish stops the generator, waits for the warehouse to catch up and
// stops the remaining clients. It returns how many ops were still not
// applied at the quiesce deadline.
func (l *load) finish() int {
	l.stop.Store(true)
	<-l.writerDone
	s := l.s
	deadline := time.Now().Add(quiesceDeadline)
	for s.appliedOps.Value() < s.oplog.Seq() && time.Now().Before(deadline) && s.pipe.failed() == nil {
		time.Sleep(time.Millisecond)
	}
	unapplied := int(s.oplog.Seq() - s.appliedOps.Value())
	l.observerStop.Store(true)
	l.wg.Wait()
	return unapplied
}

// abandon stops the clients without waiting for the warehouse: the way
// out when the run has already failed.
func (l *load) abandon() {
	l.stop.Store(true)
	l.observerStop.Store(true)
	l.wg.Wait()
}

// workDir creates a fresh scratch directory for one set-up.
func workDir(base string, n int) (string, error) {
	dir := filepath.Join(base, fmt.Sprintf("run-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// setUp builds the stack cfg.setups times and keeps the last one; the
// set-up time reported is the median, so one slow directory creation
// does not decide it. A set-up that is measured (more than one is asked
// for) is also repeated until setupFloor has been spent on it: the small
// tables set up in under 0.1 s, and three samples of that are mostly
// file-system noise.
func setUp(spec workloadSpec, cfg runConfig) (*stack, float64, error) {
	var times []float64
	var st *stack
	var spent float64
	for i := 0; i < cfg.setups || (cfg.setups > 1 && spent < setupFloor.Seconds()); i++ {
		if st != nil {
			st.close()
			os.RemoveAll(st.dir)
		}
		dir, err := workDir(cfg.workDir, i)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		if st, err = openStack(spec, dir); err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		if err = st.startPipeline(nil, 0); err != nil {
			st.close()
			os.RemoveAll(dir)
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		spent += times[len(times)-1]
	}
	_, med, _ := quartiles(times)
	return st, med, nil
}
