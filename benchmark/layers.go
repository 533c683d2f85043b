package main

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"opdelta/internal/engine"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
	"opdelta/internal/transport"
	netrepl "opdelta/internal/transport/net"
	"opdelta/internal/warehouse"
	"opdelta/internal/workload"
)

// The layer drive replays the workload's statement stream through each
// layer's public functions, single-threaded, on scratch directories. It
// runs after the pipeline has stopped, so nothing competes for the
// cores and allocation counts are exact.

const (
	// driveSample bounds how many ops the in-memory layers replay.
	driveSample = 2000
	// driveBudget bounds each replay that touches disk.
	driveBudget = time.Second
	// quietQueries is how many reader queries the quiet scan times.
	quietQueries = 24
)

// perOp times fn over n items and returns nanoseconds per item.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(n))
}

// replay runs step until it reports done or the budget is spent, and
// returns how many steps ran with their wall and CPU cost per step in
// nanoseconds. The two differ where a step waits for an fsync; the
// window shares below are shares of CPU, so they use the CPU cost.
func replay(step func(i int) (done bool, err error)) (n int, wallNs, cpuNs float64, err error) {
	start, cpu := time.Now(), processCPU()
	for time.Since(start) < driveBudget {
		done, err := step(n)
		if err != nil {
			return n, 0, 0, err
		}
		if done {
			break
		}
		n++
	}
	wall := time.Since(start)
	return n, ratio(float64(wall.Nanoseconds()), float64(n)), ratio(float64((processCPU() - cpu).Nanoseconds()), float64(n)), nil
}

// layerDrive fills the D metrics. ops is the stream the real run
// captured (TableLog.Read(0)); window holds the traced window's totals,
// which turn per-op costs into shares of the window's CPU.
func layerDrive(m *metricSet, s *stack, sched *schedule, ops []*opdelta.Op, w *windowStats, scratch string) error {
	r := w.window
	sample := ops
	if len(sample) > driveSample {
		sample = sample[:driveSample]
	}
	n := len(sample)
	srcSchema := schemaOf(s.src)
	partsSchema := workload.PartsSchema()

	// sqlmini: Parse.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stmts := make([]sqlmini.Statement, n)
	var perr error
	parseNs := perOp(n, func(i int) {
		st, err := sqlmini.Parse(sample[i].Stmt)
		if err != nil {
			perr = err
		}
		stmts[i] = st
	})
	runtime.ReadMemStats(&after)
	if perr != nil {
		return perr
	}
	m.set("sqlmini.parse_ns_per_stmt", parseNs)
	m.set("sqlmini.parse_allocs_per_stmt", ratio(float64(after.Mallocs-before.Mallocs), float64(n)))

	// opdelta: Op.Encode, DecodeOpResolve, StatementFootprint.
	encoded := make([][]byte, n)
	var cerr error
	encodeNs := perOp(n, func(i int) {
		enc, err := sample[i].Encode(nil, partsSchema)
		if err != nil {
			cerr = err
		}
		encoded[i] = enc
	})
	decodeNs := perOp(n, func(i int) {
		if _, _, err := opdelta.DecodeOpResolve(encoded[i], srcSchema); err != nil {
			cerr = err
		}
	})
	footprintNs := perOp(n, func(i int) {
		opdelta.StatementFootprint(stmts[i], partsSchema, "part_id")
	})
	if cerr != nil {
		return cerr
	}
	var encBytes int
	for _, e := range encoded {
		encBytes += len(e)
	}
	m.set("opdelta.encode_ns_per_op", encodeNs)
	m.set("opdelta.decode_ns_per_op", decodeNs)
	m.set("opdelta.footprint_ns_per_op", footprintNs)
	m.set("opdelta.encoded_bytes_per_op", ratio(float64(encBytes), float64(n)))

	// netrepl: AppendFrame + ReadFrame over a buffer, in the shipper's
	// default batches of 64 ops.
	const batch = 64
	var frame, payload []byte
	start := time.Now()
	for i := 0; i < n; i += batch {
		payload = binary.LittleEndian.AppendUint64(payload[:0], uint64(i))
		for _, e := range encoded[i:min(i+batch, n)] {
			payload = binary.AppendUvarint(payload, uint64(len(e)))
			payload = append(payload, e...)
		}
		frame = netrepl.AppendFrame(frame[:0], netrepl.FrameDelta, 0, payload)
		if _, _, _, err := netrepl.ReadFrame(bytes.NewReader(frame)); err != nil {
			return err
		}
	}
	frameNs := ratio(float64(time.Since(start).Nanoseconds()), float64(n))
	m.set("netrepl.frame_codec_ns_per_op", frameNs)

	// transport: Append + Next per op and one Ack per applier batch, on
	// a scratch queue. Append fsyncs, so this one is time-boxed.
	q, err := transport.OpenQueue(filepath.Join(scratch, "queue"))
	if err != nil {
		return err
	}
	qn, queueNs, queueCPU, err := replay(func(i int) (bool, error) {
		if i == n {
			return true, nil
		}
		if err := q.Append(encoded[i]); err != nil {
			return false, err
		}
		if _, err := q.Next(); err != nil {
			return false, err
		}
		if (i+1)%256 == 0 {
			return false, q.Ack()
		}
		return false, nil
	})
	q.Close()
	if err != nil {
		return err
	}
	m.setN("transport.queue_roundtrip_ns_per_op", queueNs, qn)

	// engine and opdelta capture: the statement stream from its start on
	// twin scratch engines, DB.Exec on one and Capture.Exec on the
	// other; the difference is the capture overhead (the paper's Fig. 3).
	plain, err := engine.Open(filepath.Join(scratch, "plain"), engine.Options{WALSync: s.spec.sync})
	if err != nil {
		return err
	}
	defer plain.Close()
	if err := workload.CreateParts(plain); err != nil {
		return err
	}
	if err := directLoad(plain, "parts", s.spec.rows, partRow); err != nil {
		return err
	}
	twin, err := openStack(s.spec, filepath.Join(scratch, "twin"))
	if err != nil {
		return err
	}
	defer twin.close()
	// The two engines take turns statement by statement, so a slow
	// stretch of the host or a cold page hits both alike.
	var execWall, captureWall time.Duration
	replayed, pairNs, pairCPU, err := replay(func(i int) (bool, error) {
		if i == n || i == len(sched.stmts) {
			return true, nil
		}
		t0 := time.Now()
		if _, err := plain.Exec(nil, sched.stmts[i]); err != nil {
			return false, err
		}
		t1 := time.Now()
		_, err := twin.capture.Exec(nil, sched.stmts[i])
		execWall += t1.Sub(t0)
		captureWall += time.Since(t1)
		return false, err
	})
	if err != nil {
		return err
	}
	// The pair's CPU is split in proportion to wall time: both sides do
	// the same kind of work.
	execShare := ratio(float64(execWall), float64(execWall+captureWall))
	execNs, captureNs := pairNs*execShare, pairNs*(1-execShare)
	execCPU, captureCPU := pairCPU*execShare, pairCPU*(1-execShare)
	m.setN("engine.exec_us_per_stmt", execNs/1e3, replayed)
	m.setN("opdelta.capture_overhead_us_per_stmt", (captureNs-execNs)/1e3, replayed)

	// warehouse: the ops the twin just captured, through a one-worker
	// ParallelIntegrator. Batches are smaller than the applier's 256 so
	// the time box holds on workloads whose ops take milliseconds.
	twinOps, err := twin.oplog.Read(0)
	if err != nil {
		return err
	}
	serial := &warehouse.ParallelIntegrator{W: twin.wh, Workers: 1, Applied: twin.applied}
	appliedN := 0
	batches, applyNs, applyCPU, err := replay(func(int) (bool, error) {
		if appliedN == len(twinOps) {
			return true, nil
		}
		end := min(appliedN+32, len(twinOps))
		_, err := serial.Apply(twinOps[appliedN:end])
		appliedN = end
		return false, err
	})
	if err != nil {
		return err
	}
	perBatch := ratio(float64(batches), float64(appliedN)) // batches per op
	applyNs, applyCPU = applyNs*perBatch, applyCPU*perBatch
	m.setN("warehouse.apply_serial_us_per_op", applyNs/1e3, appliedN)

	// engine: the reader's queries on the quiesced warehouse, no writers.
	quiet := make([]float64, 0, quietQueries)
	for i := 0; i < quietQueries; i++ {
		qs := time.Now()
		tx := s.whDB.BeginSnapshot()
		_, _, err := s.whDB.Query(tx, sched.reads[i%len(sched.reads)])
		tx.Commit()
		if err != nil {
			return err
		}
		quiet = append(quiet, float64(time.Since(qs).Nanoseconds())/1e6)
	}
	sort.Float64s(quiet)
	m.setN("engine.snapshot_scan_quiet_ms", percentile(quiet, 0.5), len(quiet))

	// Shares of the traced window's CPU: cost per op × ops applied in
	// the window / CPU the process burned in the window.
	cpuNs := float64((r.to.cpu - r.from.cpu).Nanoseconds())
	share := func(nsPerOp float64) float64 { return ratio(nsPerOp*float64(w.appliedOps), cpuNs) }
	m.set("harness.layer_share.sqlmini", share(parseNs))
	m.set("harness.layer_share.opdelta_capture", share(captureCPU-execCPU))
	m.set("harness.layer_share.opdelta_codec", share(encodeNs+decodeNs+footprintNs))
	m.set("harness.layer_share.opdelta_log_read", ratio(float64(r.to.probes.fetchNs-r.from.probes.fetchNs), cpuNs))
	m.set("harness.layer_share.engine", share(execCPU))
	m.set("harness.layer_share.transport", share(queueCPU))
	m.set("harness.layer_share.netrepl", share(frameNs))
	m.set("harness.layer_share.warehouse", share(applyCPU))
	return nil
}
