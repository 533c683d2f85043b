package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"opdelta/internal/obs"
)

// metricDecl declares one reported metric. BENCHMARK.json repeats these
// declarations for the driver; smoke_test.go keeps the two in step.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only; per-layer metrics have none
}

// endToEnd are the metrics a warehouse operator sees, gated by a
// regression bound. Every workload reports every one of them.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"applied_ops_per_s", "1/s", "higher", 0.25},
	{"applied_rows_per_s", "1/s", "higher", 0.25},
	{"wire_bytes_per_op", "B", "lower", 0.10},
	{"cpu_us_per_op", "us", "lower", 0.25},
}

// perLayer are the ungated metrics of single layers, from the traced
// run. Source tags: H harness span or wrapper, R registry delta over
// the window, D layer drive.
var perLayer = []metricDecl{
	// Demoted from the gated set; see AA.md for the measured spreads.
	{Name: "freshness_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "freshness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "freshness_within_250ms_ratio", Unit: "ratio", Better: "higher"},
	{Name: "src_stmt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "src_stmt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "olap_query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "olap_query_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "failed_ops_ratio", Unit: "ratio", Better: "lower"},

	{Name: "sqlmini.parse_ns_per_stmt", Unit: "ns", Better: "lower"},        // D
	{Name: "sqlmini.parse_allocs_per_stmt", Unit: "count", Better: "lower"}, // D

	{Name: "opdelta.capture_overhead_us_per_stmt", Unit: "us", Better: "lower"}, // D
	{Name: "opdelta.hybrid_capture_ratio", Unit: "ratio", Better: "lower"},      // R
	{Name: "opdelta.log_read_us_per_op", Unit: "us", Better: "lower"},           // H
	{Name: "opdelta.log_read_empty_ratio", Unit: "ratio", Better: "lower"},      // H
	{Name: "opdelta.encode_ns_per_op", Unit: "ns", Better: "lower"},             // D
	{Name: "opdelta.decode_ns_per_op", Unit: "ns", Better: "lower"},             // D
	{Name: "opdelta.footprint_ns_per_op", Unit: "ns", Better: "lower"},          // D
	{Name: "opdelta.encoded_bytes_per_op", Unit: "B", Better: "lower"},          // D

	{Name: "engine.exec_us_per_stmt", Unit: "us", Better: "lower"},             // D
	{Name: "engine.snapshot_scan_quiet_ms", Unit: "ms", Better: "lower"},       // D
	{Name: "engine.version_count_end", Unit: "count", Better: "lower"},         // R
	{Name: "engine.versions_reclaimed_ratio", Unit: "ratio", Better: "higher"}, // R

	{Name: "txn.write_wait_ms_per_kop", Unit: "ms", Better: "lower"},   // R
	{Name: "txn.lock_waits_per_kop", Unit: "count", Better: "lower"},   // R
	{Name: "txn.escalations", Unit: "count", Better: "lower"},          // R
	{Name: "txn.lock_timeouts", Unit: "count", Better: "lower"},        // R
	{Name: "txn.reader_lock_acquires", Unit: "count", Better: "lower"}, // R

	{Name: "wal.src.fsyncs_per_kop", Unit: "count", Better: "lower"},     // R
	{Name: "wal.src.fsync_ms_mean", Unit: "ms", Better: "lower"},         // R
	{Name: "wal.src.group_cohort_mean", Unit: "count", Better: "higher"}, // R
	{Name: "wal.src.appends_per_op", Unit: "count", Better: "lower"},     // R
	{Name: "wal.wh.fsyncs_per_kop", Unit: "count", Better: "lower"},      // R
	{Name: "wal.wh.fsync_ms_mean", Unit: "ms", Better: "lower"},          // R
	{Name: "wal.wh.group_cohort_mean", Unit: "count", Better: "higher"},  // R
	{Name: "wal.wh.appends_per_op", Unit: "count", Better: "lower"},      // R
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},               // H

	{Name: "storage.pool_hit_ratio", Unit: "ratio", Better: "higher"},          // R, warehouse
	{Name: "storage.src_pool_hit_ratio", Unit: "ratio", Better: "higher"},      // R, source
	{Name: "storage.pool_evictions_per_kop", Unit: "count", Better: "lower"},   // R, warehouse
	{Name: "storage.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"}, // H

	{Name: "transport.queue_append_us_mean", Unit: "us", Better: "lower"},      // R
	{Name: "transport.queue_ack_us_mean", Unit: "us", Better: "lower"},         // R
	{Name: "transport.queue_depth_bytes_max", Unit: "B", Better: "lower"},      // H
	{Name: "transport.queue_roundtrip_ns_per_op", Unit: "ns", Better: "lower"}, // D
	{Name: "transport.stage_queue_ms_mean", Unit: "ms", Better: "lower"},       // H

	{Name: "netrepl.ops_per_batch", Unit: "count", Better: "higher"},         // R
	{Name: "netrepl.rtt_ms_mean", Unit: "ms", Better: "lower"},               // R
	{Name: "netrepl.reconnects", Unit: "count", Better: "lower"},             // R
	{Name: "netrepl.redelivered_ops", Unit: "count", Better: "lower"},        // R
	{Name: "netrepl.conn_write_block_ms", Unit: "ms", Better: "lower"},       // H
	{Name: "netrepl.frame_codec_ns_per_op", Unit: "ns", Better: "lower"},     // D
	{Name: "netrepl.commit_to_enqueue_ms_p50", Unit: "ms", Better: "lower"},  // H
	{Name: "netrepl.enqueue_to_durable_ms_p50", Unit: "ms", Better: "lower"}, // H

	{Name: "warehouse.apply_serial_us_per_op", Unit: "us", Better: "lower"},        // D
	{Name: "warehouse.apply_txn_ms_mean", Unit: "ms", Better: "lower"},             // R
	{Name: "warehouse.records_per_statement", Unit: "ratio", Better: "higher"},     // R
	{Name: "warehouse.degraded_whole_table_ratio", Unit: "ratio", Better: "lower"}, // R
	{Name: "warehouse.skipped_duplicates", Unit: "count", Better: "lower"},         // R
	{Name: "warehouse.stage_lock_ms_mean", Unit: "ms", Better: "lower"},            // R
	{Name: "warehouse.stage_apply_ms_mean", Unit: "ms", Better: "lower"},           // R
	{Name: "warehouse.stage_durable_ms_mean", Unit: "ms", Better: "lower"},         // R

	{Name: "process.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "harness.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.backlog_end_ops", Unit: "count", Better: "lower"},
	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "harness.trace_cpu_overhead_ratio", Unit: "ratio", Better: "lower"},
	// Layer drive cost × ops in the window / window CPU: one traversal of
	// each layer's public entry points per op, so a lower bound.
	{Name: "harness.layer_share.sqlmini", Unit: "ratio", Better: "lower"},
	{Name: "harness.layer_share.opdelta_capture", Unit: "ratio", Better: "lower"},
	{Name: "harness.layer_share.opdelta_codec", Unit: "ratio", Better: "lower"},
	{Name: "harness.layer_share.opdelta_log_read", Unit: "ratio", Better: "lower"},
	{Name: "harness.layer_share.engine", Unit: "ratio", Better: "lower"},
	{Name: "harness.layer_share.transport", Unit: "ratio", Better: "lower"},
	{Name: "harness.layer_share.netrepl", Unit: "ratio", Better: "lower"},
	{Name: "harness.layer_share.warehouse", Unit: "ratio", Better: "lower"},
}

// metricSet is one run's values plus, for timings, the sample count
// behind each.
type metricSet struct {
	values  map[string]float64
	samples map[string]int
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]float64{}, samples: map[string]int{}}
}

func (m *metricSet) set(name string, v float64) { m.values[name] = v }

func (m *metricSet) setN(name string, v float64, n int) {
	m.values[name] = v
	m.samples[name] = n
}

// print writes the declared metrics by name with unit, and the sample
// count of every timing.
func (m *metricSet) print(w io.Writer, decls []metricDecl) {
	for _, d := range decls {
		v, ok := m.values[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-44s %14.4f %-6s", d.Name, v, d.Unit)
		if n, ok := m.samples[d.Name]; ok {
			line += fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
}

// check reports declared metrics the run did not produce, and values
// that are not finite numbers.
func (m *metricSet) check(decls []metricDecl) error {
	for _, d := range decls {
		v, ok := m.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no value (%v): no samples in the window", d.Name, v)
		}
	}
	return nil
}

// windowStats are the end-to-end measurements of one window of a load.
type windowStats struct {
	*window
	appliedOps, appliedRows int
	reader                  bool // the workload has an OLAP client
	issued                  int  // statements whose freshness origin fell in the window
	within                  int  // of those, durable within freshnessSLO
	opsPerS, cpuPerOp       float64
	freshness, stmt, query  []float64 // ms, sorted
	late                    []float64 // ms each open-loop statement started after it was due, sorted
}

// stats measures one window of the load.
func (l *load) stats(win *window) *windowStats {
	w, r, ops := &windowStats{window: win, reader: l.s.spec.reader}, win, l.ops
	open := l.s.spec.rate > 0
	// Ops applied, counted as the warehouse commits them. Conflicting
	// ops commit in seq order and independent ones nearly so; the commit
	// count is read as a seq watermark to sum their rows.
	w.appliedOps = int(r.to.applyTxn - r.from.applyTxn)
	for i := int(r.from.applyTxn); i < int(r.to.applyTxn) && i < len(ops.rows); i++ {
		w.appliedRows += int(ops.rows[i])
	}
	for i := 0; i < l.issued; i++ {
		if r.contains(ops.start[i]) {
			w.stmt = append(w.stmt, float64(ops.done[i]-ops.start[i])/1e6)
			if open {
				w.late = append(w.late, float64(ops.start[i]-ops.ref[i])/1e6)
			}
		}
		if r.contains(ops.ref[i]) {
			w.issued++
			if ops.durable[i] == 0 {
				continue // never applied: misses every limit
			}
			f := ops.durable[i] - ops.ref[i]
			w.freshness = append(w.freshness, float64(f)/1e6)
			if f <= int64(freshnessSLO) {
				w.within++
			}
		}
	}
	// The reader's rotation mixes cheap stripe scans with an aggregate
	// ten times their cost, so a percentile over single queries would sit
	// on the edge between the two populations. One sample is therefore
	// one whole rotation: its mean latency per query. Any readRotation
	// consecutive queries hold the same kinds, so every query starts one.
	for i := 0; i+readRotation <= len(l.queries); i++ {
		if !r.contains(l.queries[i].start) {
			continue
		}
		var sum int64
		for _, q := range l.queries[i : i+readRotation] {
			sum += q.end - q.start
		}
		w.query = append(w.query, float64(sum)/readRotation/1e6)
	}
	sort.Float64s(w.freshness)
	sort.Float64s(w.stmt)
	sort.Float64s(w.query)
	sort.Float64s(w.late)
	w.opsPerS = float64(w.appliedOps) / r.seconds()
	w.cpuPerOp = ratio(float64((r.to.cpu - r.from.cpu).Microseconds()), float64(w.appliedOps))
	return w
}

// endToEndMetrics fills every metric a user of the pipeline would see.
func endToEndMetrics(m *metricSet, w *windowStats, setupS, failedRatio float64) {
	r := w.window
	m.set("setup_s", setupS)
	m.set("applied_ops_per_s", w.opsPerS)
	m.set("applied_rows_per_s", float64(w.appliedRows)/r.seconds())
	m.setN("freshness_p50_ms", percentile(w.freshness, 0.50), len(w.freshness))
	m.setN("freshness_p99_ms", percentile(w.freshness, 0.99), len(w.freshness))
	m.setN("freshness_within_250ms_ratio", ratio(float64(w.within), float64(w.issued)), w.issued)
	m.setN("src_stmt_p50_ms", percentile(w.stmt, 0.50), len(w.stmt))
	m.setN("src_stmt_p99_ms", percentile(w.stmt, 0.99), len(w.stmt))
	if w.reader {
		m.setN("olap_query_p50_ms", percentile(w.query, 0.50), len(w.query))
		m.setN("olap_query_p95_ms", percentile(w.query, 0.95), len(w.query))
	} else {
		// No reader runs beside this workload's writer.
		m.setN("olap_query_p50_ms", 0, 0)
		m.setN("olap_query_p95_ms", 0, 0)
	}
	m.set("wire_bytes_per_op", ratio(float64(r.to.probes.wireBytes-r.from.probes.wireBytes), float64(w.appliedOps)))
	m.set("cpu_us_per_op", w.cpuPerOp)
	m.set("failed_ops_ratio", failedRatio)
}

// regDelta differences two registry snapshots.
type regDelta struct{ a, b *obs.Snapshot }

func hasLabels(m *obs.Metric, want []obs.Label) bool {
	for _, l := range want {
		if m.Label(l.Key) != l.Value {
			return false
		}
	}
	return true
}

// fold sums f over every series called name whose labels include want,
// so per-table and per-shard series add up to their engine's total.
func fold(s *obs.Snapshot, name string, want []obs.Label, f func(*obs.Metric) float64) float64 {
	var sum float64
	for i := range s.Metrics {
		if m := &s.Metrics[i]; m.Name == name && hasLabels(m, want) {
			sum += f(m)
		}
	}
	return sum
}

func (d regDelta) counter(name string, want ...obs.Label) float64 {
	val := func(m *obs.Metric) float64 { return m.Value }
	return fold(d.b, name, want, val) - fold(d.a, name, want, val)
}

func (d regDelta) histSum(name string, want ...obs.Label) float64 {
	sum := func(m *obs.Metric) float64 { return m.Sum }
	return fold(d.b, name, want, sum) - fold(d.a, name, want, sum)
}

func (d regDelta) histCount(name string, want ...obs.Label) float64 {
	cnt := func(m *obs.Metric) float64 { return float64(m.Count) }
	return fold(d.b, name, want, cnt) - fold(d.a, name, want, cnt)
}

// histMean is the mean of the observations made inside the window.
func (d regDelta) histMean(name string, want ...obs.Label) float64 {
	return ratio(d.histSum(name, want...), d.histCount(name, want...))
}

func (d regDelta) gaugeEnd(name string, want ...obs.Label) float64 {
	return fold(d.b, name, want, func(m *obs.Metric) float64 { return m.Value })
}

// registryMetrics fills the R metrics: before/after deltas of the
// program's own registry over the traced window.
func registryMetrics(m *metricSet, w *windowStats) {
	r := w.window
	d := regDelta{r.from.reg, r.to.reg}
	ops := float64(w.appliedOps)
	kops := ops / 1000
	src, wh := obs.L("db", "src"), obs.L("db", "wh")
	source := obs.L("source", sourceID)
	par := obs.L("integrator", "parallel")

	m.set("opdelta.hybrid_capture_ratio", ratio(d.counter("opdelta_hybrid_captures_total"), d.counter("opdelta_captured_total")))

	m.set("engine.version_count_end", d.gaugeEnd("mvcc_version_count", wh))
	m.set("engine.versions_reclaimed_ratio", ratio(d.counter("mvcc_versions_reclaimed_total", wh), d.counter("mvcc_versions_created_total", wh)))

	m.set("txn.write_wait_ms_per_kop", ratio(d.counter("txn_table_write_wait_nanos_total", wh)/1e6, kops))
	m.set("txn.lock_waits_per_kop", ratio(d.counter("txn_table_lock_waits_total", wh), kops))
	m.set("txn.escalations", d.counter("txn_table_lock_escalations_total", wh))
	m.set("txn.lock_timeouts", d.counter("txn_lock_timeouts_total"))
	// Shared-lock grants on the replica the reader scans. Snapshot reads
	// never enter the lock manager, so this must stay 0.
	m.set("txn.reader_lock_acquires", d.counter("txn_table_read_acquires_total", wh, obs.L("table", "parts")))

	for _, db := range []struct {
		tag string
		l   obs.Label
	}{{"src", src}, {"wh", wh}} {
		m.set("wal."+db.tag+".fsyncs_per_kop", ratio(d.histCount("wal_fsync_seconds", db.l), kops))
		m.set("wal."+db.tag+".fsync_ms_mean", d.histMean("wal_fsync_seconds", db.l)*1e3)
		m.set("wal."+db.tag+".group_cohort_mean", d.histMean("wal_group_commit_cohort_records", db.l))
		m.set("wal."+db.tag+".appends_per_op", ratio(d.counter("wal_appends_total", db.l), ops))
	}
	m.set("wal.bytes_per_op", ratio(float64(r.to.walBytes-r.from.walBytes), ops))

	hitRatio := func(db obs.Label) float64 {
		hits := d.counter("storage_pool_hits_total", db)
		return ratio(hits, hits+d.counter("storage_pool_misses_total", db))
	}
	m.set("storage.pool_hit_ratio", hitRatio(wh))
	m.set("storage.src_pool_hit_ratio", hitRatio(src))
	m.set("storage.pool_evictions_per_kop", ratio(d.counter("storage_pool_evictions_total", wh), kops))

	m.set("transport.queue_append_us_mean", d.histMean("transport_queue_append_seconds", source)*1e6)
	m.set("transport.queue_ack_us_mean", d.histMean("transport_queue_ack_seconds", source)*1e6)

	m.set("netrepl.ops_per_batch", ratio(d.counter("netrepl_shipper_ops_sent_total", source), d.counter("netrepl_shipper_batches_sent_total", source)))
	m.set("netrepl.rtt_ms_mean", d.histMean("netrepl_shipper_rtt_seconds", source)*1e3)
	m.set("netrepl.reconnects", d.counter("netrepl_shipper_reconnects_total", source))
	m.set("netrepl.redelivered_ops", d.counter("netrepl_server_redelivered_ops_total"))

	m.set("warehouse.apply_txn_ms_mean", d.histMean("warehouse_apply_txn_seconds", par)*1e3)
	m.set("warehouse.records_per_statement", ratio(d.counter("warehouse_apply_records_total", par), d.counter("warehouse_apply_statements_total", par)))
	m.set("warehouse.degraded_whole_table_ratio", ratio(d.counter("warehouse_degraded_whole_table_total", par), d.counter("warehouse_apply_txns_total", par)))
	m.set("warehouse.skipped_duplicates", d.counter("warehouse_apply_skipped_duplicate_total", par))
	for _, stage := range []string{obs.StageLock, obs.StageApply, obs.StageDurable} {
		m.set("warehouse.stage_"+stage+"_ms_mean", d.histMean("delta_stage_seconds", obs.L("stage", stage))*1e3)
	}

	m.set("process.alloc_bytes_per_op", ratio(float64(r.to.mem.TotalAlloc-r.from.mem.TotalAlloc), ops))
	m.set("process.allocs_per_op", ratio(float64(r.to.mem.Mallocs-r.from.mem.Mallocs), ops))
	m.set("process.gc_pause_ms_total", float64(r.to.mem.PauseTotalNs-r.from.mem.PauseTotalNs)/1e6)
	m.set("process.peak_rss_mb", peakRSSMB())
}

// harnessMetrics fills the H metrics: what the harness's own wrappers
// and stamps saw in the traced window.
func harnessMetrics(m *metricSet, l *load, w *windowStats, recs []obs.TraceRecord, pr *probes) {
	s, r, ops := l.s, w.window, l.ops
	p0, p1 := r.from.probes, r.to.probes
	m.set("opdelta.log_read_us_per_op", ratio(float64(p1.fetchNs-p0.fetchNs)/1e3, float64(p1.fetchedOps-p0.fetchedOps)))
	m.set("opdelta.log_read_empty_ratio", ratio(float64(p1.emptyFetches-p0.emptyFetches), float64(p1.fetches-p0.fetches)))
	m.set("netrepl.conn_write_block_ms", float64(p1.writeBlockNs-p0.writeBlockNs)/1e6)
	m.set("transport.queue_depth_bytes_max", float64(l.depthMax))
	m.set("storage.disk_bytes_per_user_byte", ratio(float64(dirBytes(s.whDB.Dir())), float64(s.spec.rows)*100))

	// These samples are the ops the traced pipeline enqueued inside the
	// window, whenever they were committed: under a deep backlog an op
	// committed in the window is shipped seconds later, possibly by the
	// next pipeline, which keeps no stamps.
	var shipHalf, applyHalf, queueWait []float64
	for i := 0; i < l.issued; i++ {
		enq := pr.enqueuedAt(i)
		if !r.contains(enq) || ops.durable[i] == 0 {
			continue
		}
		shipHalf = append(shipHalf, math.Max(0, float64(enq-ops.ref[i])/1e6))
		applyHalf = append(applyHalf, math.Max(0, float64(ops.durable[i]-enq)/1e6))
	}
	for _, rec := range recs {
		idx := int(rec.Seq) - 1
		if idx < 0 || idx >= l.issued || !r.contains(rec.Dequeued) {
			continue
		}
		if enq := pr.enqueuedAt(idx); enq != 0 {
			// The applier polls the queue while the server is still
			// appending the batch, so it can dequeue an op before the
			// batch's enqueue callback fires; that wait is zero.
			queueWait = append(queueWait, math.Max(0, float64(rec.Dequeued-enq)/1e6))
		}
	}
	sort.Float64s(shipHalf)
	sort.Float64s(applyHalf)
	m.setN("netrepl.commit_to_enqueue_ms_p50", percentile(shipHalf, 0.5), len(shipHalf))
	m.setN("netrepl.enqueue_to_durable_ms_p50", percentile(applyHalf, 0.5), len(applyHalf))
	m.setN("transport.stage_queue_ms_mean", mean(queueWait), len(queueWait))

	lateP99 := 0.0 // a closed loop has no schedule to be late for
	if len(w.late) > 0 {
		lateP99 = percentile(w.late, 0.99)
	}
	m.setN("harness.gen_late_p99_ms", lateP99, len(w.late))
	m.set("harness.backlog_end_ops", float64(r.to.captured-r.to.applied))
}
