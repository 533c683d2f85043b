package warehouse

import (
	"fmt"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/keyset"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
)

// AppliedLogName is the warehouse table recording which op sequence
// numbers have been integrated.
const AppliedLogName = "opdelta__applied"

// AppliedLog makes integration idempotent under at-least-once delivery:
// one row per applied op, written inside the same warehouse transaction
// as the op's effects, so an op is recorded exactly when its effects
// are durable and a replayed op is detected and skipped.
//
// A high-watermark is NOT enough here: the parallel integrator commits
// key-disjoint transaction groups out of order, so "highest seq seen"
// can run ahead of unapplied ops and a crash between the two would lose
// them on replay. Per-op rows have no such gap.
//
// The log is scoped to one op stream — seqs from different sources
// collide, so a multi-source warehouse keeps one engine (and one
// AppliedLog) per source, as opdeltad -serve does.
type AppliedLog struct {
	W *Warehouse
}

func appliedLogSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "a_seq", Type: catalog.TypeInt64, NotNull: true},
	)
}

// EnsureAppliedLog creates (if needed) the applied-ops table and
// returns the log.
func EnsureAppliedLog(w *Warehouse) (*AppliedLog, error) {
	if _, err := w.DB.Table(AppliedLogName); err != nil {
		if _, err := w.DB.CreateTable(engine.TableDef{
			Name: AppliedLogName, Schema: appliedLogSchema(), PrimaryKey: "a_seq",
		}); err != nil {
			return nil, err
		}
	}
	return &AppliedLog{W: w}, nil
}

// Seen reports whether op seq was applied by a committed transaction.
// Run it inside the applying tx after its locks are held: the point
// read takes a shared range lock contained in the pre-declared
// exclusive range, so the answer cannot change before the tx decides.
func (a *AppliedLog) Seen(tx *engine.Tx, seq uint64) (bool, error) {
	found := false
	_, err := a.W.DB.IterateSelect(tx, &sqlmini.Select{
		Table: AppliedLogName,
		Where: &sqlmini.Binary{Op: sqlmini.OpEq,
			L: &sqlmini.ColRef{Name: "a_seq"},
			R: &sqlmini.Literal{Val: catalog.NewInt(int64(seq))}},
	}, func(catalog.Tuple) error {
		found = true
		return nil
	})
	return found, err
}

// Record marks the ops applied, inside tx. Commit the tx and the ops
// are durably deduplicated; abort and nothing was recorded — the
// all-or-nothing coupling the exactly-once argument rests on.
func (a *AppliedLog) Record(tx *engine.Tx, ops []*opdelta.Op) error {
	for _, op := range ops {
		row := catalog.Tuple{catalog.NewInt(int64(op.Seq))}
		if err := a.W.DB.InsertTuple(tx, AppliedLogName, row); err != nil {
			return fmt.Errorf("warehouse: recording applied op %d: %w", op.Seq, err)
		}
	}
	return nil
}

// MaxSeq returns the highest applied seq (0 when none) — the resume
// hint a replication server acks to shippers after a restart.
func (a *AppliedLog) MaxSeq() (uint64, error) {
	var max int64
	err := a.W.DB.ScanTable(nil, AppliedLogName, func(row catalog.Tuple) error {
		if s := row[0].Int(); s > max {
			max = s
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return uint64(max), nil
}

// ranges returns the lock ranges covering ops' dedup rows, for
// pre-declaration alongside the group's data locks (a run of
// consecutive seqs is one range).
func (a *AppliedLog) ranges(ops []*opdelta.Op) []keyset.KeyRange {
	rs := make([]keyset.KeyRange, 0, len(ops))
	for _, op := range ops {
		rs = append(rs, keyset.Point(catalog.NewInt(int64(op.Seq))))
	}
	return keyset.LockRanges(rs)
}
