package warehouse

import (
	"errors"
	"fmt"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/sqlmini"
)

// AppliedLogName is the warehouse table holding the op stream's
// high-water seq.
const AppliedLogName = "opdelta__applied"

// ErrAppliedLogLayout is EnsureAppliedLog's answer for an applied-ops
// table in another layout, such as the one row per applied op that
// earlier builds kept: read as a high-water row, it would be misread.
var ErrAppliedLogLayout = errors.New("warehouse: the applied-ops table is not in the high-water layout")

// AppliedLog makes integration idempotent under at-least-once delivery.
// It is one row holding the high-water seq: the last op whose effects
// have committed. ParallelIntegrator commits source transactions in
// source order and writes the row inside each one's warehouse
// transaction, so the applied ops are always exactly those at or below
// it: an op counts as applied exactly when its effects are durable, a
// redelivered op is one at or below the row, and a restarted consumer
// resumes at the op after it.
//
// The log is scoped to one op stream — seqs from different sources
// collide, so a multi-source warehouse keeps one engine (and one
// AppliedLog) per source, as opdeltad -serve does.
type AppliedLog struct {
	W *Warehouse
	t *engine.Table
}

// highWaterKey is the a_id of the table's one row.
var highWaterKey = catalog.NewInt(0)

func appliedLogSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "a_id", Type: catalog.TypeInt64, NotNull: true},
		catalog.Column{Name: "a_seq", Type: catalog.TypeInt64, NotNull: true},
	)
}

// EnsureAppliedLog creates (if needed) the applied-ops table and its
// row, at seq 0, and returns the log. A table in another layout fails
// with ErrAppliedLogLayout.
func EnsureAppliedLog(w *Warehouse) (*AppliedLog, error) {
	t, err := w.DB.Table(AppliedLogName)
	if err != nil {
		if t, err = w.DB.CreateTable(engine.TableDef{
			Name: AppliedLogName, Schema: appliedLogSchema(), PrimaryKey: "a_id",
		}); err != nil {
			return nil, err
		}
	}
	if want := appliedLogSchema(); !t.Schema.Equal(want) || t.PKCol != 0 {
		return nil, fmt.Errorf("%w: %s has the layout %s, not %s keyed by a_id",
			ErrAppliedLogLayout, AppliedLogName, t.Schema, want)
	}
	if _, ok := t.LookupPK(highWaterKey); !ok {
		// A new table, or one whose creation a crash cut off before the row.
		if err := w.DB.InsertTuple(nil, AppliedLogName, catalog.Tuple{highWaterKey, catalog.NewInt(0)}); err != nil {
			return nil, err
		}
	}
	return &AppliedLog{W: w, t: t}, nil
}

// MaxSeq returns the high-water seq: every op of the stream at or below
// it is applied, and none above it (0 when none is). It is one point
// read of the row, in its own transaction.
func (a *AppliedLog) MaxSeq() (uint64, error) {
	var seq int64
	_, err := a.W.DB.IterateSelect(nil, &sqlmini.Select{
		Table: AppliedLogName,
		Where: &sqlmini.Binary{Op: sqlmini.OpEq,
			L: &sqlmini.ColRef{Name: "a_id"},
			R: &sqlmini.Literal{Val: highWaterKey}},
	}, func(row catalog.Tuple) error {
		seq = row[1].Int()
		return nil
	})
	return uint64(seq), err
}

// advance sets the high-water seq inside tx. ParallelIntegrator calls
// it at a group's commit turn, when no other group can be writing the
// row, so the row stays out of the groups' pre-declared lock plans.
func (a *AppliedLog) advance(tx *engine.Tx, seq uint64) error {
	rows, err := tx.RowsByKeys(a.t, 0, []catalog.Value{highWaterKey}, true)
	if err != nil {
		return err
	}
	if len(rows[0]) != 1 {
		return fmt.Errorf("warehouse: %s holds %d high-water rows, want 1", AppliedLogName, len(rows[0]))
	}
	return tx.UpdateRow(a.t, rows[0][0], catalog.Tuple{highWaterKey, catalog.NewInt(int64(seq))})
}
