package main

import (
	"fmt"
	"time"

	"opdelta/internal/wal"
)

// The load shape is fixed: one writer client, at most one reader client,
// one TCP connection, one processor. Only the per-workload knobs below
// differ, and every one of them names an input property the pipeline's
// behaviour depends on (working set vs. pool, rows per statement, flush
// policy, open vs. closed loop, reads beside writes).

// procs is GOMAXPROCS for every run. The reference box has two shared
// vCPUs, and how much the second one adds changes from minute to minute:
// with both in use the same build and seed gave 134 to 184 ops/s on
// range-views, with one 127 to 138 (AA.md). One processor still runs
// every goroutine of the pipeline; what it cannot show is a gain that
// comes only from running them at the same time.
const procs = 1

// Table sizes. The engine keeps its default pool of 256 pages (≈2 MB)
// per table, so the small table fits and the big one is ≈10× the pool.
const (
	smallRows = 12_000
	bigRows   = 200_000
	dimRows   = 1_000 // join partner of the range-views join view
)

// Statement shapes (rows per statement).
const (
	rangeUpdateRows = 200
	rangeDeleteRows = 100 // two INSERTs refill one deleted range
	// rangeInsertRows is bounded by the op log: a TableLog row holds the
	// whole statement text and must fit an 8 KB page, which a 100-row
	// INSERT of 100-byte records does not.
	rangeInsertRows = 50
	olapUpdateRows  = 50
)

// Reader shapes. The reader rotates three PK-stripe scans and one
// aggregate over a quarter of the table.
const (
	stripeFraction = 32
	aggFraction    = 4
	readRotation   = 4 // queries per rotation: 3 stripe scans + 1 aggregate
)

// observerEvery is how often the observer reads the applied-ops
// counter; it bounds the resolution of every freshness sample.
const observerEvery = 250 * time.Microsecond

// freshnessSLO is the limit behind freshness_within_250ms_ratio.
const freshnessSLO = 250 * time.Millisecond

// setupFloor is the least total time a measured set-up is repeated for.
const setupFloor = time.Second

// quiesceDeadline bounds the wait for applied = captured after the
// generator stops; ops still unapplied then count as failed.
const quiesceDeadline = 30 * time.Second

type mixKind int

const (
	mixPoint mixKind = iota // 30 % INSERT / 40 % UPDATE / 30 % DELETE, one row each
	mixRange                // 40 % range UPDATE / 20 % range DELETE / 40 % multi-row INSERT
	mixOLAP                 // 80 % point ops, 20 % 50-row range UPDATE
)

type viewSet int

const (
	viewsNone  viewSet = iota // replica only
	viewsPoint                // + projection view slim_parts (the opdeltad wiring)
	viewsRange                // + aggregate and join views
)

type workloadSpec struct {
	name string
	why  string
	rows int
	mix  mixKind
	// views is what the warehouse maintains besides the replica.
	views viewSet
	// sync is the engine WAL flush policy on both ends. The topic queue
	// fsyncs every append regardless; that is the program's choice.
	sync wal.SyncPolicy
	// lagBound > 0 makes the writer a closed loop: it stalls while
	// captured − applied exceeds the bound. Zero means an open loop at
	// rate statements per second, timed from each statement's due time.
	lagBound int
	rate     int
	// reader runs the OLAP client beside the writer.
	reader bool
	// maxOpsPerSec sizes the pre-generated schedule of a closed loop.
	maxOpsPerSec int
}

var workloads = []workloadSpec{
	{
		name: "point-saturate",
		why:  "closed-loop single-row DML on a table that fits the pool: per-op CPU of every hop dominates, views and fsync do little",
		rows: smallRows, mix: mixPoint, views: viewsPoint, sync: wal.SyncFlush,
		lagBound: 4096, maxOpsPerSec: 12_000,
	},
	{
		name: "point-steady",
		why:  "same ops on an open loop below saturation at SyncFull: latency is poll intervals, batch windows and fsyncs, not CPU",
		rows: smallRows, mix: mixPoint, views: viewsPoint, sync: wal.SyncFull,
		rate: 250,
	},
	{
		name: "range-views",
		why:  "50-200-row statements on a table 10x the pool with projection, aggregate and join views: engine and view maintenance do the work",
		rows: bigRows, mix: mixRange, views: viewsRange, sync: wal.SyncFlush,
		lagBound: 32, maxOpsPerSec: 1_000,
	},
	{
		name: "olap-mixed",
		why:  "open-loop writes beside a closed-loop snapshot reader on a table 10x the pool: reads and writes share storage, engine and MVCC",
		rows: bigRows, mix: mixOLAP, views: viewsNone, sync: wal.SyncFlush,
		rate: 250, reader: true,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// runConfig is one invocation's timing, derived from -seconds so that
// every phase shortens together.
type runConfig struct {
	seed   int64
	window time.Duration
	warmup time.Duration
	traced bool
	// setups is how many times set-up runs at the least (see setUp);
	// setup_s is the median.
	setups int
	// outDir receives the Chrome trace of a traced run.
	outDir string
	// workDir holds the scratch databases.
	workDir string
}

func newRunConfig(seed int64, seconds float64, traced bool) runConfig {
	window := time.Duration(seconds * float64(time.Second))
	return runConfig{seed: seed, window: window, warmup: window / 5, traced: traced, setups: 3}
}
