package warehouse

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/extract"
)

// ApplyStats summarizes one integration run.
type ApplyStats struct {
	// Records is the number of deltas or ops consumed.
	Records int
	// Statements is the number of SQL statements executed at the
	// warehouse — the cost driver §4.1 contrasts: one statement per op
	// versus one (or two) per affected row.
	Statements int
	// Txns is the number of source transactions applied: what the
	// stream committed at the source, however the warehouse grouped it.
	Txns int
	// Commits is the number of warehouse transactions that committed
	// them. ParallelIntegrator commits a run of point-only source
	// transactions as one, so Commits ≤ Txns.
	Commits int
	// Duration is wall-clock integration time (the maintenance window).
	Duration time.Duration
}

// ValueDeltaIntegrator applies value deltas the way §4.1 describes:
// the whole differential is one indivisible batch transaction, and each
// delta record is translated into SQL — inserts into one INSERT, deletes
// into one DELETE (by key, from the before image), updates into one
// DELETE plus one INSERT.
type ValueDeltaIntegrator struct {
	W *Warehouse

	mOnce sync.Once
	m     *applyMetrics
}

func (in *ValueDeltaIntegrator) metrics() *applyMetrics {
	in.mOnce.Do(func() { in.m = newApplyMetrics(in.W.DB.Obs(), "value") })
	return in.m
}

// Apply integrates the differential as a single batch transaction. The
// batch writes most of every table it touches, so its lock footprint —
// whole-table exclusive on each — is pre-declared upfront: concurrent
// readers queue once behind the batch instead of interleaving key-range
// grants with its row statements, which can only untangle through lock
// timeouts.
func (in *ValueDeltaIntegrator) Apply(deltas []extract.Delta) (ApplyStats, error) {
	m := in.metrics()
	start := time.Now()
	stats := ApplyStats{Txns: 1, Commits: 1}
	tx := in.W.DB.Begin()
	if err := tx.LockTablesExclusive(in.batchTables(deltas)...); err != nil {
		tx.Abort()
		return stats, err
	}
	for _, d := range deltas {
		n, err := in.applyOne(tx, d)
		stats.Statements += n
		if err != nil {
			tx.Abort()
			return stats, err
		}
		stats.Records++
	}
	if err := tx.Commit(); err != nil {
		return stats, err
	}
	stats.Duration = time.Since(start)
	m.txns.Inc()
	m.commits.Inc()
	m.records.Add(uint64(stats.Records))
	m.statements.Add(uint64(stats.Statements))
	m.txnSeconds.ObserveDuration(stats.Duration)
	return stats, nil
}

// batchTables collects every warehouse table the batch transaction will
// touch: replicas of the delta tables, dependent select-project and
// join views (join maintenance also probes the partner replica), and
// aggregate views.
func (in *ValueDeltaIntegrator) batchTables(deltas []extract.Delta) []string {
	seen := make(map[string]bool)
	add := func(name string) {
		seen[strings.ToLower(name)] = true
	}
	done := make(map[string]bool)
	for _, d := range deltas {
		if done[strings.ToLower(d.Table)] {
			continue // same source table: contributes nothing new
		}
		done[strings.ToLower(d.Table)] = true
		if in.W.HasReplica(d.Table) {
			add(d.Table)
		}
		for _, v := range in.W.ViewsOn(d.Table) {
			add(v.Def.Name)
			if v.Def.Join != nil {
				add(v.Def.Join.Table)
				add(v.Def.Source)
			}
		}
		for _, av := range in.W.AggViewsOn(d.Table) {
			add(av.Def.Name)
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func (in *ValueDeltaIntegrator) applyOne(tx *engine.Tx, d extract.Delta) (int, error) {
	if in.W.HasReplica(d.Table) {
		return in.applyToReplica(tx, d)
	}
	// View-only deployment: maintain each dependent view directly from
	// the images (value deltas always carry enough state for this).
	views := in.W.ViewsOn(d.Table)
	stmts := 0
	for _, v := range views {
		if v.Def.Join != nil {
			return stmts, fmt.Errorf("warehouse: join view %s requires replicas", v.Def.Name)
		}
		// Each record is a statement delta of one row for the view's plan.
		var err error
		switch d.Kind {
		case extract.KindInsert:
			err = v.sp.Apply(tx, &engine.StatementDelta{Op: engine.TrigInsert, Table: d.Table,
				After: []catalog.Tuple{d.After}})
		case extract.KindDelete:
			err = v.sp.Apply(tx, &engine.StatementDelta{Op: engine.TrigDelete, Table: d.Table,
				Before: []catalog.Tuple{d.Before}})
		case extract.KindUpdate:
			err = v.sp.Apply(tx, &engine.StatementDelta{Op: engine.TrigUpdate, Table: d.Table,
				Before: []catalog.Tuple{d.Before}, After: []catalog.Tuple{d.After}})
		case extract.KindUpsert:
			// Timestamp-method deltas have no before image.
			err = v.sp.upsert(tx, d.After)
		default:
			err = fmt.Errorf("warehouse: cannot apply delta kind %v", d.Kind)
		}
		stmts++
		if err != nil {
			return stmts, err
		}
	}
	return stmts, nil
}

// applyToReplica translates one value delta into SQL statements against
// the replica table. Dependent views follow via the replica's statement
// hooks.
func (in *ValueDeltaIntegrator) applyToReplica(tx *engine.Tx, d extract.Delta) (int, error) {
	t, err := in.W.DB.Table(d.Table)
	if err != nil {
		return 0, err
	}
	sqls, err := DeltaSQL(d, t)
	if err != nil {
		return 0, err
	}
	for i, stmt := range sqls {
		if _, err := in.W.DB.Exec(tx, stmt); err != nil {
			return i, fmt.Errorf("warehouse: applying %q: %w", stmt, err)
		}
	}
	return len(sqls), nil
}

// DeltaSQL renders the SQL statement(s) that integrate one value delta
// into a replica table, exactly as §4.1 describes the translation.
func DeltaSQL(d extract.Delta, t *engine.Table) ([]string, error) {
	if t.PKCol < 0 {
		return nil, fmt.Errorf("warehouse: value-delta integration into %s needs a primary key", t.Name)
	}
	pkName := t.Schema.Column(t.PKCol).Name
	insert := func(img catalog.Tuple) string {
		var b strings.Builder
		b.WriteString("INSERT INTO ")
		b.WriteString(t.Name)
		b.WriteString(" VALUES (")
		for i, v := range img {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.SQLLiteral())
		}
		b.WriteString(")")
		return b.String()
	}
	deleteByPK := func(img catalog.Tuple) string {
		return fmt.Sprintf("DELETE FROM %s WHERE %s = %s", t.Name, pkName, img[t.PKCol].SQLLiteral())
	}
	switch d.Kind {
	case extract.KindInsert:
		if d.After == nil {
			return nil, fmt.Errorf("warehouse: insert delta without after image")
		}
		return []string{insert(d.After)}, nil
	case extract.KindDelete:
		if d.Before == nil {
			return nil, fmt.Errorf("warehouse: delete delta without before image")
		}
		return []string{deleteByPK(d.Before)}, nil
	case extract.KindUpdate:
		if d.Before == nil || d.After == nil {
			return nil, fmt.Errorf("warehouse: update delta missing an image")
		}
		// "each original update transaction ... translated into x SQL
		// delete statements (from before image) and x SQL insert
		// statements (from after image)"
		return []string{deleteByPK(d.Before), insert(d.After)}, nil
	case extract.KindUpsert:
		if d.After == nil {
			return nil, fmt.Errorf("warehouse: upsert delta without after image")
		}
		// The timestamp method cannot tell insert from update: delete
		// any existing row by key, then insert the final image.
		return []string{deleteByPK(d.After), insert(d.After)}, nil
	default:
		return nil, fmt.Errorf("warehouse: unknown delta kind %v", d.Kind)
	}
}
