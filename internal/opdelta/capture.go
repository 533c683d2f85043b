package opdelta

import (
	"fmt"
	"sync"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/obs"
	"opdelta/internal/sqlmini"
)

// Capture wraps an engine and records every DML statement as an
// Op-Delta right before submitting it — the paper's interception point
// ("right before it is submitted to the DBMS to simulate the capture
// mechanism that will be implemented by COTS software or by the
// wrapper approach"). SELECT and DDL pass through uncaptured.
type Capture struct {
	DB *engine.DB
	// Log receives the captured ops.
	Log Log
	// Analyzer, when set, drives hybrid capture: statements a
	// registered view cannot absorb from the op alone are augmented
	// with before images of the affected rows. When nil, pure Op-Delta
	// is captured (no before images ever).
	Analyzer *Analyzer

	// Obs receives the capture counters (opdelta_captured_total,
	// opdelta_hybrid_captures_total). Nil keeps them on a private
	// registry so independent Capture instances don't share series.
	// Set before first use.
	Obs *obs.Registry

	// Counters resolve lazily from Obs on first capture; sharded
	// atomics, so concurrent sessions capture through one shared
	// Capture without contending.
	once              sync.Once
	captured, hybrids *obs.Counter
}

func (c *Capture) metrics() {
	c.once.Do(func() {
		reg := c.Obs
		if reg == nil {
			reg = obs.NewRegistry()
		}
		c.captured = reg.Counter("opdelta_captured_total")
		c.hybrids = reg.Counter("opdelta_hybrid_captures_total")
	})
}

// Exec captures and then executes one statement. The op records sql
// as given — the statement as submitted, the paper's Op-Delta — which
// Parse has checked is exactly one statement. A nil tx runs the
// statement (and its op record, for transactional logs) in a dedicated
// transaction.
func (c *Capture) Exec(tx *engine.Tx, sql string) (engine.Result, error) {
	if tx == nil {
		tx = c.DB.Begin()
		res, err := c.Exec(tx, sql)
		if err != nil {
			tx.Abort()
			return engine.Result{}, err
		}
		if err := tx.Commit(); err != nil {
			return engine.Result{}, err
		}
		return res, nil
	}
	stmt, err := sqlmini.Parse(sql)
	if err != nil {
		return engine.Result{}, err
	}
	c.metrics()
	op, err := c.buildOp(tx, stmt, sql)
	if err != nil {
		return engine.Result{}, err
	}
	if op != nil {
		if err := c.Log.Append(tx, op); err != nil {
			return engine.Result{}, fmt.Errorf("opdelta: capture: %w", err)
		}
		c.captured.Inc()
	}
	return c.DB.ExecStmt(tx, stmt)
}

// buildOp constructs the Op-Delta for a DML statement, fetching before
// images inside tx when the analyzer demands the hybrid. Non-DML
// statements return a nil op.
func (c *Capture) buildOp(tx *engine.Tx, stmt sqlmini.Statement, text string) (*Op, error) {
	var (
		kind  OpKind
		table string
		where sqlmini.Expr
	)
	switch s := stmt.(type) {
	case *sqlmini.Insert:
		kind, table = OpInsert, s.Table
	case *sqlmini.Update:
		kind, table, where = OpUpdate, s.Table, s.Where
	case *sqlmini.Delete:
		kind, table, where = OpDelete, s.Table, s.Where
	default:
		return nil, nil
	}
	op := &Op{
		Txn:   uint64(tx.ID()),
		Kind:  kind,
		Table: table,
		Stmt:  text,
		Time:  c.DB.Now(),
	}
	if kind != OpInsert && c.Analyzer != nil && c.Analyzer.NeedsBeforeImages(stmt) {
		// Hybrid capture: read the affected rows' before images inside
		// the same transaction, before the mutation runs.
		op.Hybrid = true
		sel := &sqlmini.Select{Table: table, Where: where}
		_, err := c.DB.IterateSelect(tx, sel, func(tup catalog.Tuple) error {
			op.Before = append(op.Before, tup)
			return nil
		})
		if err != nil {
			return nil, err
		}
		c.hybrids.Inc()
	}
	return op, nil
}

// CaptureStats reports capture counters.
type CaptureStats struct {
	Captured uint64 // ops recorded
	Hybrids  uint64 // ops that carried before images
}

// Stats returns capture counters.
func (c *Capture) Stats() CaptureStats {
	c.metrics()
	return CaptureStats{Captured: c.captured.Value(), Hybrids: c.hybrids.Value()}
}
