package warehouse

import (
	"fmt"
	"strings"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/opdelta"
)

// registerJoinView materializes an equi-join view over two replica
// tables. Maintenance is incremental: a statement's changes on either
// side are joined against the other side's replica and the affected
// view rows are patched (joinPlan) — the NeedsAux classification from
// the analyzer.
//
// Join views require both sides' replicas (the auxiliary state) and
// project both sides' primary keys, so view rows are addressable.
func (w *Warehouse) registerJoinView(def opdelta.ViewDef, srcSchema, joinSchema *catalog.Schema) (*View, error) {
	if joinSchema == nil {
		return nil, fmt.Errorf("warehouse: join view %s needs the join partner's schema", def.Name)
	}
	if !w.HasReplica(def.Source) || !w.HasReplica(def.Join.Table) {
		return nil, fmt.Errorf("warehouse: join view %s requires replicas of %s and %s",
			def.Name, def.Source, def.Join.Table)
	}
	v := &View{Def: def, SrcSchema: srcSchema, JoinSchema: joinSchema}
	schemas := [2]*catalog.Schema{srcSchema, joinSchema}
	plan := &joinPlan{where: def.Where, leftSchema: srcSchema}
	// Resolve projections: names may appear in either schema; left wins
	// on collision (names must be unique across sides to avoid
	// ambiguity, which CreateTable enforces anyway).
	projNames := def.Project
	if len(projNames) == 0 {
		for _, c := range srcSchema.Columns() {
			projNames = append(projNames, c.Name)
		}
		for _, c := range joinSchema.Columns() {
			projNames = append(projNames, c.Name)
		}
	}
	var cols []catalog.Column
names:
	for _, name := range projNames {
		for side, schema := range schemas {
			if i, ok := schema.ColIndex(name); ok {
				plan.cols = append(plan.cols, joinCol{side: side, col: i})
				plan.own[side] = append(plan.own[side], i)
				cols = append(cols, schema.Column(i))
				continue names
			}
		}
		return nil, fmt.Errorf("warehouse: join view %s projects unknown column %q", def.Name, name)
	}
	v.Schema = catalog.NewSchema(cols...)
	joinNames := [2]string{def.Join.LeftCol, def.Join.RightCol}
	for side, source := range [2]string{def.Source, def.Join.Table} {
		t, err := w.DB.Table(source)
		if err != nil {
			return nil, err
		}
		// Both sides' PKs must be retained: they address the view's rows.
		if t.PKCol < 0 {
			return nil, fmt.Errorf("warehouse: join view %s: source %s needs a primary key", def.Name, source)
		}
		pk := t.Schema.Column(t.PKCol).Name
		pkInView, ok := v.Schema.ColIndex(pk)
		if !ok {
			return nil, fmt.Errorf("warehouse: join view %s must project %s.%s", def.Name, source, pk)
		}
		pkCol, ok := schemas[side].ColIndex(pk)
		if !ok {
			return nil, fmt.Errorf("warehouse: join view %s: key %q of %s missing in its schema", def.Name, pk, source)
		}
		joinCol, ok := schemas[side].ColIndex(joinNames[side])
		if !ok {
			return nil, fmt.Errorf("warehouse: join column %q missing in %s", joinNames[side], source)
		}
		plan.tables[side], plan.pkCol[side], plan.pkInView[side], plan.joinCol[side] = t, pkCol, pkInView, joinCol
	}
	var err error
	if plan.view, err = w.DB.CreateTable(engine.TableDef{Name: def.Name, Schema: v.Schema}); err != nil {
		return nil, err
	}
	v.join = plan
	w.mu.Lock()
	w.views[strings.ToLower(def.Source)] = append(w.views[strings.ToLower(def.Source)], v)
	w.views[strings.ToLower(def.Join.Table)] = append(w.views[strings.ToLower(def.Join.Table)], v)
	w.all = append(w.all, v)
	w.mu.Unlock()
	// One hook per side. The view's rows are found by either side's key
	// through RowsByKeys, which reads a secondary index on that view
	// column when the deployment created one and scans the view otherwise.
	for side, source := range [2]string{def.Source, def.Join.Table} {
		side := side
		if err := w.DB.CreateStatementHook(source, engine.StatementHook{
			Name: "join_" + def.Name + [2]string{"_l", "_r"}[side],
			Fn: func(tx *engine.Tx, d *engine.StatementDelta) error {
				return plan.applySide(tx, side, d)
			},
		}); err != nil {
			return nil, err
		}
	}
	return v, nil
}
