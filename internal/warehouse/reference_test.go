package warehouse

import (
	"fmt"
	"testing"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
)

// refSerialApply is the serial op replay the scheduler replaced, kept as
// the reference TestParallelApplyEquivalence compares ParallelIntegrator
// with: each source transaction (a run of ops sharing Op.Txn) in source
// order as one warehouse transaction, every statement parsed where it
// is applied and its locks taken on demand — no footprints, lock plan,
// turns or workers. Only the per-op apply code is shared.
func refSerialApply(w *Warehouse, ops []*opdelta.Op) (ApplyStats, error) {
	in := &ParallelIntegrator{W: w}
	var stats ApplyStats
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && ops[j].Txn == ops[i].Txn {
			j++
		}
		tx := w.DB.Begin()
		for _, op := range ops[i:j] {
			stmt, err := op.Statement()
			if err != nil {
				tx.Abort()
				return stats, err
			}
			n, err := in.applyOne(tx, op, stmt)
			stats.Statements += n
			if err != nil {
				tx.Abort()
				return stats, fmt.Errorf("warehouse: op %d (%s): %w", op.Seq, op.Stmt, err)
			}
			stats.Records++
		}
		if err := tx.Commit(); err != nil {
			return stats, err
		}
		stats.Txns++
		i = j
	}
	return stats, nil
}

// The per-row, interpreted view maintenance the delta plans replaced,
// kept verbatim as the reference TestViewMaintenanceMatchesRecompute
// compares them with: one row-level trigger per view and source table,
// each row handled by building and executing sqlmini statements against
// the view. useReferenceMaintenance swaps it in for the statement hooks
// of an already registered warehouse, so both sides share registration
// (schemas, tables, keys) and differ only in how rows are maintained.
//
// One known defect is kept with the rest: refDeleteViewRow's
// full-row-match DELETE removes every duplicate of a row, so the
// reference is wrong for views that drop the source PK. Tests do not
// register such views on a reference warehouse.

func useReferenceMaintenance(t *testing.T, w *Warehouse) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range w.Views() {
		switch {
		case v.Def.Join != nil:
			must(w.DB.DropStatementHook(v.Def.Source, "join_"+v.Def.Name+"_l"))
			must(w.DB.DropStatementHook(v.Def.Join.Table, "join_"+v.Def.Name+"_r"))
			must(refInstallJoinTriggers(w, v))
		case w.HasReplica(v.Def.Source):
			if v.sp.pkInView < 0 {
				t.Fatalf("reference maintenance is wrong for PK-dropping view %s", v.Def.Name)
			}
			must(w.DB.DropStatementHook(v.Def.Source, "view_"+v.Def.Name))
			must(refInstallSPTrigger(w, v))
		}
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	for _, avs := range w.aggs {
		for _, av := range avs {
			must(w.DB.DropStatementHook(av.Def.Source, "aggview_"+av.Def.Name))
			must(refInstallAggTrigger(w, av))
		}
	}
}

func refInstallSPTrigger(w *Warehouse, v *View) error {
	trig := engine.Trigger{
		Name: "view_" + v.Def.Name, OnInsert: true, OnDelete: true, OnUpdate: true,
		Fn: func(tx *engine.Tx, ev engine.TriggerEvent) error {
			switch ev.Op {
			case engine.TrigInsert:
				return refViewInsert(w, tx, v, ev.After)
			case engine.TrigDelete:
				return refViewDelete(w, tx, v, ev.Before)
			case engine.TrigUpdate:
				return refViewUpdate(w, tx, v, ev.Before, ev.After)
			}
			return nil
		},
	}
	return w.DB.CreateTrigger(v.Def.Source, trig)
}

func refMatches(v *View, row catalog.Tuple) (bool, error) {
	if v.Def.Where == nil {
		return true, nil
	}
	return sqlmini.EvalPredicate(v.Def.Where, v.SrcSchema, row)
}

func refProject(v *View, row catalog.Tuple) catalog.Tuple {
	out := make(catalog.Tuple, len(v.sp.proj))
	for i, p := range v.sp.proj {
		out[i] = row[p]
	}
	return out
}

func refViewInsert(w *Warehouse, tx *engine.Tx, v *View, after catalog.Tuple) error {
	ok, err := refMatches(v, after)
	if err != nil || !ok {
		return err
	}
	return w.DB.InsertTuple(tx, v.Def.Name, refProject(v, after))
}

func refViewDelete(w *Warehouse, tx *engine.Tx, v *View, before catalog.Tuple) error {
	ok, err := refMatches(v, before)
	if err != nil || !ok {
		return err
	}
	return refDeleteViewRow(w, tx, v, refProject(v, before))
}

func refViewUpdate(w *Warehouse, tx *engine.Tx, v *View, before, after catalog.Tuple) error {
	inBefore, err := refMatches(v, before)
	if err != nil {
		return err
	}
	inAfter, err := refMatches(v, after)
	if err != nil {
		return err
	}
	switch {
	case inBefore && inAfter:
		if err := refDeleteViewRow(w, tx, v, refProject(v, before)); err != nil {
			return err
		}
		return w.DB.InsertTuple(tx, v.Def.Name, refProject(v, after))
	case inBefore:
		return refDeleteViewRow(w, tx, v, refProject(v, before))
	case inAfter:
		return w.DB.InsertTuple(tx, v.Def.Name, refProject(v, after))
	default:
		return nil
	}
}

// refDeleteViewRow removes a view row by PK when the view retains it,
// otherwise by full-row match — which deletes every duplicate.
func refDeleteViewRow(w *Warehouse, tx *engine.Tx, v *View, row catalog.Tuple) error {
	if v.sp.pkInView >= 0 {
		del := &sqlmini.Delete{Table: v.Def.Name, Where: &sqlmini.Binary{
			Op: sqlmini.OpEq,
			L:  &sqlmini.ColRef{Name: v.Schema.Column(v.sp.pkInView).Name},
			R:  &sqlmini.Literal{Val: row[v.sp.pkInView]},
		}}
		_, err := w.DB.ExecStmt(tx, del)
		return err
	}
	// Full-row match: build an AND chain over all columns.
	var where sqlmini.Expr
	for i := 0; i < v.Schema.NumColumns(); i++ {
		var cmp sqlmini.Expr
		if row[i].IsNull() {
			cmp = &sqlmini.IsNull{Expr: &sqlmini.ColRef{Name: v.Schema.Column(i).Name}}
		} else {
			cmp = &sqlmini.Binary{Op: sqlmini.OpEq,
				L: &sqlmini.ColRef{Name: v.Schema.Column(i).Name},
				R: &sqlmini.Literal{Val: row[i]}}
		}
		if where == nil {
			where = cmp
		} else {
			where = &sqlmini.Binary{Op: sqlmini.OpAnd, L: where, R: cmp}
		}
	}
	_, err := w.DB.ExecStmt(tx, &sqlmini.Delete{Table: v.Def.Name, Where: where})
	return err
}

// refCombineRow builds a view row from one row of each side: the left
// side's projected columns, then the right side's.
func refCombineRow(v *View, left, right catalog.Tuple) catalog.Tuple {
	projL, projR := v.join.own[leftSide], v.join.own[rightSide]
	out := make(catalog.Tuple, 0, len(projL)+len(projR))
	for _, i := range projL {
		out = append(out, left[i])
	}
	for _, i := range projR {
		out = append(out, right[i])
	}
	return out
}

func refInstallJoinTriggers(w *Warehouse, v *View) error {
	leftCol, ok := v.SrcSchema.ColIndex(v.Def.Join.LeftCol)
	if !ok {
		return fmt.Errorf("warehouse: join column %q missing in %s", v.Def.Join.LeftCol, v.Def.Source)
	}
	rightCol, ok := v.JoinSchema.ColIndex(v.Def.Join.RightCol)
	if !ok {
		return fmt.Errorf("warehouse: join column %q missing in %s", v.Def.Join.RightCol, v.Def.Join.Table)
	}
	lpk, err := w.sourcePKName(v.Def.Source)
	if err != nil {
		return err
	}
	rpk, err := w.sourcePKName(v.Def.Join.Table)
	if err != nil {
		return err
	}
	lpkIdx, _ := v.SrcSchema.ColIndex(lpk)
	rpkIdx, _ := v.JoinSchema.ColIndex(rpk)
	lpkView, _ := v.Schema.ColIndex(lpk)
	rpkView, _ := v.Schema.ColIndex(rpk)

	// probe returns the partner rows matching a join key.
	probe := func(tx *engine.Tx, table string, col string, key catalog.Value) ([]catalog.Tuple, error) {
		if key.IsNull() {
			return nil, nil // NULL join keys never match
		}
		sel := &sqlmini.Select{Table: table, Where: &sqlmini.Binary{
			Op: sqlmini.OpEq, L: &sqlmini.ColRef{Name: col}, R: &sqlmini.Literal{Val: key},
		}}
		var rows []catalog.Tuple
		_, err := w.DB.IterateSelect(tx, sel, func(t catalog.Tuple) error {
			rows = append(rows, t)
			return nil
		})
		return rows, err
	}
	// deleteByPK removes all view rows whose side-PK column equals key.
	deleteByPK := func(tx *engine.Tx, viewCol int, key catalog.Value) error {
		del := &sqlmini.Delete{Table: v.Def.Name, Where: &sqlmini.Binary{
			Op: sqlmini.OpEq, L: &sqlmini.ColRef{Name: v.Schema.Column(viewCol).Name},
			R: &sqlmini.Literal{Val: key},
		}}
		_, err := w.DB.ExecStmt(tx, del)
		return err
	}
	matchesSel := func(left catalog.Tuple) (bool, error) {
		if v.Def.Where == nil {
			return true, nil
		}
		return sqlmini.EvalPredicate(v.Def.Where, v.SrcSchema, left)
	}

	insertLeft := func(tx *engine.Tx, left catalog.Tuple) error {
		if ok, err := matchesSel(left); err != nil || !ok {
			return err
		}
		partners, err := probe(tx, v.Def.Join.Table, v.Def.Join.RightCol, left[leftCol])
		if err != nil {
			return err
		}
		for _, right := range partners {
			if err := w.DB.InsertTuple(tx, v.Def.Name, refCombineRow(v, left, right)); err != nil {
				return err
			}
		}
		return nil
	}
	insertRight := func(tx *engine.Tx, right catalog.Tuple) error {
		partners, err := probe(tx, v.Def.Source, v.Def.Join.LeftCol, right[rightCol])
		if err != nil {
			return err
		}
		for _, left := range partners {
			if ok, err := matchesSel(left); err != nil {
				return err
			} else if !ok {
				continue
			}
			if err := w.DB.InsertTuple(tx, v.Def.Name, refCombineRow(v, left, right)); err != nil {
				return err
			}
		}
		return nil
	}

	leftTrig := engine.Trigger{
		Name: "join_" + v.Def.Name + "_l", OnInsert: true, OnDelete: true, OnUpdate: true,
		Fn: func(tx *engine.Tx, ev engine.TriggerEvent) error {
			switch ev.Op {
			case engine.TrigInsert:
				return insertLeft(tx, ev.After)
			case engine.TrigDelete:
				return deleteByPK(tx, lpkView, ev.Before[lpkIdx])
			case engine.TrigUpdate:
				if err := deleteByPK(tx, lpkView, ev.Before[lpkIdx]); err != nil {
					return err
				}
				return insertLeft(tx, ev.After)
			}
			return nil
		},
	}
	rightTrig := engine.Trigger{
		Name: "join_" + v.Def.Name + "_r", OnInsert: true, OnDelete: true, OnUpdate: true,
		Fn: func(tx *engine.Tx, ev engine.TriggerEvent) error {
			switch ev.Op {
			case engine.TrigInsert:
				return insertRight(tx, ev.After)
			case engine.TrigDelete:
				return deleteByPK(tx, rpkView, ev.Before[rpkIdx])
			case engine.TrigUpdate:
				if err := deleteByPK(tx, rpkView, ev.Before[rpkIdx]); err != nil {
					return err
				}
				return insertRight(tx, ev.After)
			}
			return nil
		},
	}
	if err := w.DB.CreateTrigger(v.Def.Source, leftTrig); err != nil {
		return err
	}
	return w.DB.CreateTrigger(v.Def.Join.Table, rightTrig)
}

func refInstallAggTrigger(w *Warehouse, v *AggView) error {
	trig := engine.Trigger{
		Name: "aggview_" + v.Def.Name, OnInsert: true, OnDelete: true, OnUpdate: true,
		Fn: func(tx *engine.Tx, ev engine.TriggerEvent) error {
			switch ev.Op {
			case engine.TrigInsert:
				return refAggFold(w, tx, v, ev.After, +1)
			case engine.TrigDelete:
				return refAggFold(w, tx, v, ev.Before, -1)
			case engine.TrigUpdate:
				if err := refAggFold(w, tx, v, ev.Before, -1); err != nil {
					return err
				}
				return refAggFold(w, tx, v, ev.After, +1)
			}
			return nil
		},
	}
	return w.DB.CreateTrigger(v.Def.Source, trig)
}

// refAggFold applies one source row to the view with the given sign.
func refAggFold(w *Warehouse, tx *engine.Tx, v *AggView, row catalog.Tuple, sign int64) error {
	if v.Def.Where != nil {
		ok, err := sqlmini.EvalPredicate(v.Def.Where, v.SrcSchema, row)
		if err != nil || !ok {
			return err
		}
	}
	// Locate the group row.
	var keyVal catalog.Value
	var where sqlmini.Expr
	if v.groupIdx >= 0 {
		keyVal = row[v.groupIdx]
		keyName := v.Schema.Column(0).Name
		if keyVal.IsNull() {
			where = &sqlmini.IsNull{Expr: &sqlmini.ColRef{Name: keyName}}
		} else {
			where = &sqlmini.Binary{Op: sqlmini.OpEq,
				L: &sqlmini.ColRef{Name: keyName}, R: &sqlmini.Literal{Val: keyVal}}
		}
	}
	var current catalog.Tuple
	if _, err := w.DB.IterateSelect(tx, &sqlmini.Select{Table: v.Def.Name, Where: where},
		func(t catalog.Tuple) error {
			current = t
			return nil
		}); err != nil {
		return err
	}
	base := 0
	if v.groupIdx >= 0 {
		base = 1
	}
	if current == nil {
		if sign < 0 {
			return fmt.Errorf("warehouse: aggregate view %s: delete for missing group (view registered after data load?)", v.Def.Name)
		}
		current = make(catalog.Tuple, v.Schema.NumColumns())
		if v.groupIdx >= 0 {
			current[0] = keyVal
		}
		current[base] = catalog.NewInt(0)
		for i := range v.aggCols {
			typ := v.Schema.Column(base + 1 + i).Type
			if typ == catalog.TypeInt64 {
				current[base+1+i] = catalog.NewInt(0)
			} else {
				current[base+1+i] = catalog.NewFloat(0)
			}
		}
		return w.DB.InsertTuple(tx, v.Def.Name, refFoldInto(v, current, row, sign, base))
	}
	next := refFoldInto(v, current.Clone(), row, sign, base)
	if next[base].Int() == 0 {
		// Group emptied: remove its row.
		_, err := w.DB.ExecStmt(tx, &sqlmini.Delete{Table: v.Def.Name, Where: where})
		return err
	}
	// Rewrite the group row: delete + insert keeps this simple and
	// correct under the table's PK.
	if _, err := w.DB.ExecStmt(tx, &sqlmini.Delete{Table: v.Def.Name, Where: where}); err != nil {
		return err
	}
	return w.DB.InsertTuple(tx, v.Def.Name, next)
}

// refFoldInto applies one signed row to the materialized accumulators.
func refFoldInto(v *AggView, acc catalog.Tuple, row catalog.Tuple, sign int64, base int) catalog.Tuple {
	acc[base] = catalog.NewInt(acc[base].Int() + sign)
	for i, spec := range v.Def.Aggregates {
		pos := base + 1 + i
		src := v.aggCols[i]
		switch spec.Fn {
		case sqlmini.AggCount:
			if src < 0 || !row[src].IsNull() {
				acc[pos] = catalog.NewInt(acc[pos].Int() + sign)
			}
		case sqlmini.AggSum, sqlmini.AggAvg:
			if row[src].IsNull() {
				continue
			}
			switch acc[pos].Type() {
			case catalog.TypeInt64:
				acc[pos] = catalog.NewInt(acc[pos].Int() + sign*row[src].Int())
			case catalog.TypeFloat64:
				val := 0.0
				if row[src].Type() == catalog.TypeInt64 {
					val = float64(row[src].Int())
				} else {
					val = row[src].Float()
				}
				acc[pos] = catalog.NewFloat(acc[pos].Float() + float64(sign)*val)
			}
		}
	}
	return acc
}
