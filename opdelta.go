// Package opdelta is the public API of the Op-Delta reproduction: a
// from-scratch relational engine substrate, the four classical delta
// extraction methods (timestamps, differential snapshots, row-level
// triggers, log mining), the Op-Delta capture mechanism of Ram & Do
// (ICDE 2000), and a warehouse with value-delta and op-delta
// integrators.
//
// The package re-exports the stable surface of the internal packages so
// applications need a single import:
//
//	db, _ := opdelta.Open("data/src", opdelta.Options{})
//	db.Exec(nil, `CREATE TABLE parts (...) PRIMARY KEY (part_id)`)
//
//	log, _ := opdelta.NewTableLog(db)
//	capture := &opdelta.Capture{DB: db, Log: log}
//	capture.Exec(nil, `UPDATE parts SET status = 'revised' WHERE ...`)
//
//	wh := opdelta.NewWarehouse(whDB)
//	wh.RegisterReplica("parts", schema, "part_id", "last_modified")
//	ops, _ := log.Read(0)
//	(&opdelta.OpDeltaIntegrator{W: wh}).Apply(ops) // commits in source-transaction order
//
// See the examples directory for complete programs and DESIGN.md for
// the architecture.
package opdelta

import (
	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/extract"
	"opdelta/internal/loadutil"
	"opdelta/internal/opdelta"
	"opdelta/internal/snapdiff"
	"opdelta/internal/sqlmini"
	"opdelta/internal/transport"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
)

// Engine substrate.
type (
	// DB is an engine instance: heap tables behind buffer pools, WAL
	// with optional archive mode, table locking, row triggers.
	DB = engine.DB
	// Options configures an engine instance.
	Options = engine.Options
	// TableDef describes a table created programmatically.
	TableDef = engine.TableDef
	// Table is one table's metadata and runtime structures.
	Table = engine.Table
	// Tx is one transaction.
	Tx = engine.Tx
	// Result reports statement effects.
	Result = engine.Result
	// Trigger is a named row-level trigger.
	Trigger = engine.Trigger
	// TriggerEvent is delivered to row-level triggers per affected row.
	TriggerEvent = engine.TriggerEvent
)

// Open opens (creating if necessary) a database directory, running
// crash recovery from its WAL.
func Open(dir string, opts Options) (*DB, error) { return engine.Open(dir, opts) }

// WAL durability policies for Options.WALSync.
const (
	// SyncFlush flushes the log to the OS on every commit (default).
	SyncFlush = wal.SyncFlush
	// SyncNone buffers the log in-process (fastest, least durable).
	SyncNone = wal.SyncNone
	// SyncFull fsyncs on every commit.
	SyncFull = wal.SyncFull
)

// Data model.
type (
	// Schema is an ordered column list.
	Schema = catalog.Schema
	// Column describes one attribute.
	Column = catalog.Column
	// Value is a dynamically typed SQL value.
	Value = catalog.Value
	// Tuple is one row.
	Tuple = catalog.Tuple
)

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return catalog.NewSchema(cols...) }

// Value constructors, re-exported from the catalog.
var (
	NewInt    = catalog.NewInt
	NewFloat  = catalog.NewFloat
	NewString = catalog.NewString
	NewBytes  = catalog.NewBytes
	NewTime   = catalog.NewTime
	NewBool   = catalog.NewBool
	NewNull   = catalog.NewNull
)

// Column types.
const (
	TypeInt64   = catalog.TypeInt64
	TypeFloat64 = catalog.TypeFloat64
	TypeString  = catalog.TypeString
	TypeBytes   = catalog.TypeBytes
	TypeTime    = catalog.TypeTime
	TypeBool    = catalog.TypeBool
)

// Value-delta extraction (the paper's §3 methods).
type (
	// Delta is one extracted value delta (before/after row images).
	Delta = extract.Delta
	// DeltaKind classifies a value delta.
	DeltaKind = extract.Kind
	// DeltaSink consumes extracted deltas.
	DeltaSink = extract.Sink
	// CollectSink gathers deltas in memory.
	CollectSink = extract.CollectSink
	// CountSink counts deltas and bytes.
	CountSink = extract.CountSink
	// FileSink streams deltas to an ASCII differential file.
	FileSink = extract.FileSink
	// TableSink writes deltas into a capture table.
	TableSink = extract.TableSink
	// RemoteTableSink writes deltas to another database over a link.
	RemoteTableSink = extract.RemoteTableSink
	// TimestampExtractor is the §3.1.1 method.
	TimestampExtractor = extract.TimestampExtractor
	// SnapshotExtractor is the §3.1.2 method.
	SnapshotExtractor = extract.SnapshotExtractor
	// TriggerCapture is the §3.1.3 method.
	TriggerCapture = extract.TriggerCapture
	// LogMiner is the §3.1.4 method.
	LogMiner = extract.LogMiner
)

// Delta kinds.
const (
	DeltaInsert = extract.KindInsert
	DeltaDelete = extract.KindDelete
	DeltaUpdate = extract.KindUpdate
	DeltaUpsert = extract.KindUpsert
)

// NewFileSink creates a differential file sink.
func NewFileSink(path string, schema *Schema) (*FileSink, error) {
	return extract.NewFileSink(path, schema)
}

// ReadDeltaFile parses a differential file written by a FileSink.
func ReadDeltaFile(path string, schema *Schema) ([]Delta, error) {
	return extract.ReadDeltaFile(path, schema)
}

// Op-Delta (the paper's §4 contribution).
type (
	// Op is one captured operation: the statement text plus source
	// transaction identity and, for hybrid captures, before images.
	Op = opdelta.Op
	// Capture wraps an engine and records every DML statement as an
	// Op-Delta right before submitting it.
	Capture = opdelta.Capture
	// OpLog stores captured ops.
	OpLog = opdelta.Log
	// TableLog keeps ops in a database table, transactionally.
	TableLog = opdelta.TableLog
	// FileLog appends committed ops to a flat file.
	FileLog = opdelta.FileLog
	// Analyzer classifies statements against view definitions for
	// hybrid (before-image) capture.
	Analyzer = opdelta.Analyzer
	// ViewDef describes a select-project-join view for the analyzer
	// and the warehouse.
	ViewDef = opdelta.ViewDef
	// JoinSpec is an equi-join with a second source table.
	JoinSpec = opdelta.JoinSpec
)

// NewTableLog creates (if needed) the op-log table in db.
func NewTableLog(db *DB) (*TableLog, error) { return opdelta.NewTableLog(db) }

// NewFileLog opens an op log file; schemaOf resolves schemas for hybrid
// before-image encoding (nil when hybrids are not used).
func NewFileLog(path string, schemaOf func(table string) (*Schema, error)) (*FileLog, error) {
	return opdelta.NewFileLog(path, schemaOf)
}

// NewAnalyzer builds a self-maintainability analyzer over views.
func NewAnalyzer(views ...ViewDef) *Analyzer { return opdelta.NewAnalyzer(views...) }

// Warehouse side.
type (
	// Warehouse wraps a destination engine with replica and view
	// bookkeeping.
	Warehouse = warehouse.Warehouse
	// ValueDeltaIntegrator applies differentials as one batch.
	ValueDeltaIntegrator = warehouse.ValueDeltaIntegrator
	// OpDeltaIntegrator replays ops, one small warehouse transaction
	// per source transaction (ops sharing Op.Txn) or per run of
	// consecutive single-row ones, committed in source order. The zero
	// value replays serially; Workers > 1 executes key-disjoint
	// transactions concurrently.
	OpDeltaIntegrator = warehouse.ParallelIntegrator
	// ApplyStats summarizes one integration run.
	ApplyStats = warehouse.ApplyStats
	// View is one registered materialized view.
	View = warehouse.View
	// AggViewDef describes an incrementally-maintained aggregate view.
	AggViewDef = warehouse.AggViewDef
	// AggView is one registered aggregate view.
	AggView = warehouse.AggView
)

// Aggregate functions for AggViewDef and ad-hoc aggregate queries.
type AggSpec = sqlmini.AggSpec

// Aggregate function identifiers.
const (
	AggCount = sqlmini.AggCount
	AggSum   = sqlmini.AggSum
	AggAvg   = sqlmini.AggAvg
	AggMin   = sqlmini.AggMin
	AggMax   = sqlmini.AggMax
)

// NewWarehouse creates a warehouse over db.
func NewWarehouse(db *DB) *Warehouse { return warehouse.New(db) }

// Dump/load utilities (the paper's Table 1 subjects).
var (
	// Export dumps a table in the engine's proprietary binary format.
	Export = loadutil.Export
	// ASCIIDump writes a table as tab-delimited text.
	ASCIIDump = loadutil.ASCIIDump
	// ASCIILoad bulk-loads tab-delimited text through the direct block
	// path, bypassing WAL and buffer pool.
	ASCIILoad = loadutil.ASCIILoad
)

// ImportOptions tunes the Import utility.
type ImportOptions = loadutil.ImportOptions

// Import loads an export file through the full engine insert path.
func Import(db *DB, table, path string, opts ImportOptions) (int64, error) {
	return loadutil.Import(db, table, path, opts)
}

// Snapshots and differentials (§3.1.2 internals, exposed for direct use).
type (
	// SnapshotChange is one difference between two snapshots.
	SnapshotChange = snapdiff.Change
)

var (
	// WriteSnapshot dumps a consistent table snapshot.
	WriteSnapshot = snapdiff.WriteSnapshot
	// DiffSortMerge computes an exact differential of key-sorted snapshots.
	DiffSortMerge = snapdiff.DiffSortMerge
	// DiffWindow computes a bounded-memory differential of unsorted
	// snapshots (Labio & Garcia-Molina's window algorithm).
	DiffWindow = snapdiff.DiffWindow
)

// Transport.
type (
	// Link simulates a network path with latency and bandwidth.
	Link = transport.Link
	// Queue is a file-backed at-least-once FIFO.
	Queue = transport.Queue
)

var (
	// LAN10Mb approximates the paper's 10 Mb/s switched LAN.
	LAN10Mb = transport.LAN10Mb
	// OpenQueue opens (or creates) a persistent queue.
	OpenQueue = transport.OpenQueue
	// ShipFile copies a file across a link.
	ShipFile = transport.ShipFile
)

// DecodeOp deserializes one op (see Op.Encode), returning bytes consumed.
func DecodeOp(data []byte, schema *Schema) (*Op, int, error) {
	return opdelta.DecodeOp(data, schema)
}

// ParseExpr parses a standalone scalar expression (for view selection
// predicates).
func ParseExpr(src string) (Expr, error) { return sqlmini.ParseExpr(src) }

// Expr is a scalar expression usable in view definitions.
type Expr = sqlmini.Expr

// CreateSecondaryIndex builds a non-unique ordered index on a column;
// range and equality predicates over it then use the index. The paper's
// timestamp extraction depends on exactly this ("table scans unless an
// index is defined on the time stamp attribute").
func CreateSecondaryIndex(db *DB, table, column string) error {
	return db.CreateSecondaryIndex(table, column)
}
