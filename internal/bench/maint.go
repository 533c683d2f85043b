package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"opdelta/internal/extract"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/txn"
	"opdelta/internal/warehouse"
	"opdelta/internal/workload"
)

// newBenchTracer returns a delta-lifecycle tracer on cfg.Obs, or nil
// (every stamp a no-op) when no registry was supplied.
func newBenchTracer(cfg *Config) *obs.Tracer {
	if cfg.Obs == nil {
		return nil
	}
	return obs.NewTracer(cfg.Obs, 256)
}

// traceOps begins a fresh lifecycle for every op, captured "now": the
// bench has no transport leg, so the trace measures the apply side —
// lock wait, statement execution, and durability — and its freshness
// lag is the op's scheduling-to-durable time within the apply window.
func traceOps(tracer *obs.Tracer, ops []*opdelta.Op) {
	for _, op := range ops {
		op.Trace = tracer.Begin(op.Seq, op.Txn, time.Now())
	}
}

// capturedWork is one source transaction's worth of deltas in both
// representations.
type capturedWork struct {
	deltas []extract.Delta
	ops    []*opdelta.Op
}

// captureSourceTxn runs one transaction of the given kind/size on a
// fresh source with both capture mechanisms installed and returns both
// delta representations. Maintenance-window statements use the indexed
// key-range shapes (the warehouse-side statement economics are what
// §4.1 measures).
func captureSourceTxn(cfg *Config, name string, kind txnKind, k int) (*capturedWork, error) {
	src, _, err := populatedSource(cfg, name, cfg.TableRows, false)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	vc := &extract.TriggerCapture{DB: src, Table: "parts"}
	if err := vc.Install(); err != nil {
		return nil, err
	}
	log, err := opdelta.NewTableLog(src)
	if err != nil {
		return nil, err
	}
	oc := &opdelta.Capture{DB: src, Log: log}

	tbl, _ := src.Table("parts")
	first := tbl.NumRows()
	tx := src.Begin()
	switch kind {
	case txnInsert:
		for i := 0; i < k; i++ {
			if _, err := oc.Exec(tx, workload.SingleInsertStmt(first+int64(i))); err != nil {
				tx.Abort()
				return nil, err
			}
		}
	case txnDelete:
		if _, err := oc.Exec(tx, workload.DeleteStmt(0, k)); err != nil {
			tx.Abort()
			return nil, err
		}
	case txnUpdate:
		if _, err := oc.Exec(tx, workload.UpdateStmt(0, k, "maint")); err != nil {
			tx.Abort()
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}

	var sink extract.CollectSink
	if _, err := vc.Extract(&sink); err != nil {
		return nil, err
	}
	ops, err := log.Read(0)
	if err != nil {
		return nil, err
	}
	// Private copies: traceOps stamps Op.Trace, and Read's ops are shared.
	return &capturedWork{deltas: sink.Deltas, ops: opdelta.CloneOps(ops)}, nil
}

// newReplicaWarehouse builds a warehouse holding a populated parts
// replica of cfg.TableRows rows.
func newReplicaWarehouse(cfg *Config, name string) (*warehouse.Warehouse, error) {
	dir, err := scratch(cfg, name)
	if err != nil {
		return nil, err
	}
	db, _, err := newWarehouseDB(cfg, dir)
	if err != nil {
		return nil, err
	}
	w := warehouse.New(db)
	if err := w.RegisterReplica("parts", workload.PartsSchema(), "part_id", "last_modified"); err != nil {
		db.Close()
		return nil, err
	}
	if err := workload.Populate(db, cfg.TableRows); err != nil {
		db.Close()
		return nil, err
	}
	return w, nil
}

// RunMaintWindow reproduces §4.1's maintenance-window experiment (E7):
// the time to integrate one source transaction of size k into the
// warehouse, via value deltas versus Op-Deltas, for each transaction
// kind. The paper reports insert windows equal, delete windows on
// average 31.8% shorter with Op-Delta, and update windows 69.7%
// shorter.
func RunMaintWindow(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "e7-maintwindow",
		Title: "Warehouse maintenance window: value delta vs Op-Delta (§4.1)",
		Unit:  "ms",
		RowHeads: []string{
			"Insert (ValueDelta)", "Insert (OpDelta)",
			"Delete (ValueDelta)", "Delete (OpDelta)",
			"Update (ValueDelta)", "Update (OpDelta)",
		},
		Notes: []string{
			"paper: insert equal; delete 31.8% shorter with Op-Delta; update 69.7% shorter (txn sizes 10..10,000)",
			"Op-Delta cells run the one op integrator at one worker: footprint analysis and the pre-declared lock plan are in every window",
		},
	}
	res.Values = make([][]float64, 6)
	tracer := newBenchTracer(&cfg)
	for _, k := range cfg.TxnSizes {
		if k > cfg.TableRows {
			return nil, fmt.Errorf("bench: txn of %d rows exceeds table of %d", k, cfg.TableRows)
		}
		res.ColHeads = append(res.ColHeads, fmt.Sprintf("%d", k))
		for ki, kind := range []txnKind{txnInsert, txnDelete, txnUpdate} {
			work, err := captureSourceTxn(&cfg, fmt.Sprintf("e7-src-%d-%d", ki, k), kind, k)
			if err != nil {
				return nil, err
			}
			// Median of cfg.Repeats fresh-warehouse applies per cell: the
			// windows are single-digit milliseconds at the default scale,
			// where one scheduler hiccup would otherwise decide the cell.
			measure := func(name string, apply func(w *warehouse.Warehouse) (warehouse.ApplyStats, error)) (time.Duration, error) {
				var ds []time.Duration
				for rep := 0; rep < cfg.Repeats; rep++ {
					w, err := newReplicaWarehouse(&cfg, fmt.Sprintf("%s-%d-%d-r%d", name, ki, k, rep))
					if err != nil {
						return 0, err
					}
					stats, err := apply(w)
					w.DB.Close()
					if err != nil {
						return 0, err
					}
					ds = append(ds, stats.Duration)
				}
				return median(ds), nil
			}
			vDur, err := measure("e7-wv", func(w *warehouse.Warehouse) (warehouse.ApplyStats, error) {
				return (&warehouse.ValueDeltaIntegrator{W: w}).Apply(work.deltas)
			})
			if err != nil {
				return nil, err
			}
			oDur, err := measure("e7-wo", func(w *warehouse.Warehouse) (warehouse.ApplyStats, error) {
				traceOps(tracer, work.ops)
				return (&warehouse.ParallelIntegrator{W: w}).Apply(work.ops)
			})
			if err != nil {
				return nil, err
			}
			res.Values[2*ki] = append(res.Values[2*ki], float64(vDur)/float64(time.Millisecond))
			res.Values[2*ki+1] = append(res.Values[2*ki+1], float64(oDur)/float64(time.Millisecond))
		}
	}
	return res, nil
}

// RunConcurrent reproduces §4.1's on-line maintenance claim (E9):
// OLAP query latency while integration is in progress. Value-delta
// integration applies the whole differential as one exclusive batch, so
// a concurrent reader stalls for the entire window; Op-Delta
// integration commits one small transaction per source transaction, so
// readers interleave.
//
// The workload is 100 source update transactions of txn-size rows each;
// both integrators consume the identical work while 2 readers loop
// partition-wise OLAP stripe scans. Reported values: integration window
// and the maximum single-query latency a reader observed.
func RunConcurrent(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	const txns = 100
	// Large enough that the apply phase (an indexed 1600-row update) is
	// comparable to a reader scan, so execution overlap — not just
	// commit pipelining — is visible in the sweep; capped so tiny test
	// configurations keep a valid key span.
	perTxn := 1600
	if max := cfg.TableRows / 4; perTxn > max {
		perTxn = max
	}
	// Readers pause between queries (OLAP think time). The gaps leave
	// applier-only intervals where the locking regime is the bottleneck:
	// key-range appliers overlap execution, whole-table appliers
	// serialize on X.
	const readerThink = 40 * time.Millisecond
	workerSweep := []int{1, 2, 4, 8}
	tableLockSweep := []int{2, 4, 8}
	res := &Result{
		ID:       "e9-online",
		Title:    "OLAP query latency during integration (§4.1 on-line maintenance)",
		Unit:     "ms",
		ColHeads: []string{"integration window", "max reader latency", "reader queries served", "speedup vs serial", "applier lock wait ms", "applier lock waits", "reader lock wait ms", "reader lock waits", "reader lock acquires", "warehouse txns"},
		RowHeads: []string{"ValueDelta batch"},
		Notes: []string{
			"value-delta integration is one exclusive batch: readers stall for the whole window",
			"Op-Delta rows: one warehouse txn per source txn (these are multi-row statements, so no run of point-only txns shares one), key-disjoint txns executing side by side and committing in source order; w=1 is serial replay, and speedup is the w=1 window / row window",
			"parallel rows pre-declare key-range locks so key-disjoint appliers overlap execution; table-lock rows force the whole-table baseline",
			"applier lock wait ms / waits: blocked time and blocked acquisitions of write-mode requests (readers excluded)",
			"reader lock wait ms / waits / acquires: blocked time, blocked requests and granted requests in a read mode; snapshot rows run readers on MVCC commit-LSN snapshots and must show zero of all three",
			"warehouse txns: transactions the integrator committed, each a point where queued readers are granted",
		},
	}
	for _, wk := range workerSweep {
		res.RowHeads = append(res.RowHeads, fmt.Sprintf("OpDelta parallel w=%d", wk))
	}
	for _, wk := range tableLockSweep {
		res.RowHeads = append(res.RowHeads, fmt.Sprintf("OpDelta parallel table-lock w=%d", wk))
	}
	snapshotSweep := []int{1, 4}
	for _, wk := range snapshotSweep {
		res.RowHeads = append(res.RowHeads, fmt.Sprintf("OpDelta parallel snapshot-read w=%d", wk))
	}
	res.Values = make([][]float64, len(res.RowHeads))

	// Capture 100 small update transactions once.
	src, _, err := populatedSource(&cfg, "e9-src", cfg.TableRows, false)
	if err != nil {
		return nil, err
	}
	vc := &extract.TriggerCapture{DB: src, Table: "parts"}
	if err := vc.Install(); err != nil {
		src.Close()
		return nil, err
	}
	log, err := opdelta.NewTableLog(src)
	if err != nil {
		src.Close()
		return nil, err
	}
	oc := &opdelta.Capture{DB: src, Log: log}
	for i := 0; i < txns; i++ {
		first := int64((i * perTxn) % (cfg.TableRows - perTxn))
		if _, err := oc.Exec(nil, workload.UpdateStmt(first, perTxn, fmt.Sprintf("m%d", i))); err != nil {
			src.Close()
			return nil, err
		}
	}
	var sink extract.CollectSink
	if _, err := vc.Extract(&sink); err != nil {
		src.Close()
		return nil, err
	}
	ops, err := log.Read(0)
	src.Close()
	if err != nil {
		return nil, err
	}
	ops = opdelta.CloneOps(ops) // traceOps stamps Op.Trace; Read's ops are shared

	type outcome struct {
		window     time.Duration
		maxLat     time.Duration
		served     int
		lockWait   time.Duration
		waits      uint64
		readerWait time.Duration
		readWaits  uint64
		readAcqs   uint64
		txns       int
	}
	runWith := func(name string, snapshotReaders bool, integrate func(w *warehouse.Warehouse) (warehouse.ApplyStats, error)) (*outcome, error) {
		w, err := newReplicaWarehouse(&cfg, name)
		if err != nil {
			return nil, err
		}
		defer w.DB.Close()
		stop := make(chan struct{})
		var mu sync.Mutex
		var maxLat time.Duration
		served := 0
		var wg sync.WaitGroup
		// Readers walk the table partition by partition: each query scans
		// one PK stripe, the usual shape of a reporting job over a
		// partitioned warehouse table. A stripe predicate is an exact PK
		// range, so under key-range locking a read only conflicts with
		// appliers whose footprint intersects that stripe; under the
		// table-lock baseline every read excludes every applier.
		stripe := cfg.TableRows / 8
		if stripe < 1 {
			stripe = 1
		}
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				pos := r * 4 // start the two readers on distant stripes
				for {
					select {
					case <-stop:
						return
					default:
					}
					first := int64((pos * stripe) % cfg.TableRows)
					pos++
					q0 := time.Now()
					var qerr error
					if snapshotReaders {
						// Lock-free MVCC read: pin the durable commit horizon
						// and resolve rows through version chains. Never enters
						// the lock manager, so appliers cannot stall it.
						stx := w.DB.BeginSnapshot()
						_, _, qerr = w.DB.Query(stx, workload.StripeScanStatement(first, stripe))
						stx.Commit()
					} else {
						_, _, qerr = w.DB.Query(nil, workload.StripeScanStatement(first, stripe))
					}
					if qerr != nil {
						if !errors.Is(qerr, txn.ErrLockTimeout) {
							return
						}
						// A reader starved past the lock timeout IS a stall
						// observation: record it and keep querying.
					}
					lat := time.Since(q0)
					mu.Lock()
					if lat > maxLat {
						maxLat = lat
					}
					served++
					mu.Unlock()
					select {
					case <-stop:
						return
					case <-time.After(readerThink):
					}
				}
			}(r)
		}
		// Let readers warm up so the engine's lock paths are hot.
		time.Sleep(20 * time.Millisecond)
		stats, err := integrate(w)
		close(stop)
		wg.Wait()
		if err != nil {
			return nil, err
		}
		out := &outcome{window: stats.Duration, maxLat: maxLat, served: served, txns: stats.Commits}
		for _, ls := range w.DB.LockTableStats() {
			out.lockWait += ls.WriteWaitTime
			out.waits += ls.WriteWaits
			out.readerWait += ls.WaitTime - ls.WriteWaitTime
			out.readWaits += ls.Waits - ls.WriteWaits
			out.readAcqs += ls.ReadAcquires
		}
		return out, nil
	}

	vOut, err := runWith("e9-wv", false, func(w *warehouse.Warehouse) (warehouse.ApplyStats, error) {
		return (&warehouse.ValueDeltaIntegrator{W: w}).Apply(sink.Deltas)
	})
	if err != nil {
		return nil, err
	}
	tracer := newBenchTracer(&cfg)
	outs := []*outcome{vOut}
	for _, wk := range workerSweep {
		wk := wk
		pOut, err := runWith(fmt.Sprintf("e9-wp%d", wk), false, func(w *warehouse.Warehouse) (warehouse.ApplyStats, error) {
			traceOps(tracer, ops)
			return (&warehouse.ParallelIntegrator{W: w, Workers: wk}).Apply(ops)
		})
		if err != nil {
			return nil, err
		}
		outs = append(outs, pOut)
	}
	for _, wk := range tableLockSweep {
		wk := wk
		pOut, err := runWith(fmt.Sprintf("e9-wt%d", wk), false, func(w *warehouse.Warehouse) (warehouse.ApplyStats, error) {
			traceOps(tracer, ops)
			return (&warehouse.ParallelIntegrator{W: w, Workers: wk, TableLocks: true}).Apply(ops)
		})
		if err != nil {
			return nil, err
		}
		outs = append(outs, pOut)
	}
	for _, wk := range snapshotSweep {
		wk := wk
		pOut, err := runWith(fmt.Sprintf("e9-ws%d", wk), true, func(w *warehouse.Warehouse) (warehouse.ApplyStats, error) {
			traceOps(tracer, ops)
			return (&warehouse.ParallelIntegrator{W: w, Workers: wk}).Apply(ops)
		})
		if err != nil {
			return nil, err
		}
		outs = append(outs, pOut)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	serial := outs[1] // workerSweep starts at w=1
	for i, out := range outs {
		speedup := float64(serial.window) / float64(out.window)
		res.Values[i] = []float64{ms(out.window), ms(out.maxLat), float64(out.served), speedup,
			ms(out.lockWait), float64(out.waits), ms(out.readerWait), float64(out.readWaits), float64(out.readAcqs), float64(out.txns)}
	}
	return res, nil
}
