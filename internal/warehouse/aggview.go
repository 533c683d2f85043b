package warehouse

import (
	"fmt"
	"strings"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/sqlmini"
)

// AggViewDef describes an incrementally-maintained aggregate view —
// the summary-table shape that Labio et al. [19] (cited in the paper's
// introduction) maintain at warehouses. The view groups the source
// table by one optional column and folds COUNT/SUM/AVG aggregates.
//
// MIN and MAX are rejected: they are not self-maintainable under
// deletes (removing the current extremum requires rescanning the
// group), so an incremental maintainer cannot support them without
// auxiliary state.
type AggViewDef struct {
	Name       string
	Source     string
	GroupBy    string // optional grouping column
	Aggregates []sqlmini.AggSpec
	Where      sqlmini.Expr // selection over source rows
}

// AggView is one registered aggregate view.
type AggView struct {
	Def       AggViewDef
	SrcSchema *catalog.Schema
	Schema    *catalog.Schema
	groupIdx  int   // source column index of GroupBy, -1 if none
	aggCols   []int // source column index per aggregate, -1 for COUNT(*)
}

// aggViewSchema lays the view out as: [group col], n_rows BIGINT
// (maintenance bookkeeping: live rows per group), then one column per
// aggregate. AVG is stored as its SUM; the companion count divides it
// at query time via the AvgQuery helper.
func aggViewSchema(def AggViewDef, src *catalog.Schema) (*catalog.Schema, []int, int, error) {
	var cols []catalog.Column
	groupIdx := -1
	if def.GroupBy != "" {
		i, ok := src.ColIndex(def.GroupBy)
		if !ok {
			return nil, nil, 0, fmt.Errorf("warehouse: no column %q in %s", def.GroupBy, def.Source)
		}
		groupIdx = i
		cols = append(cols, src.Column(i))
	}
	cols = append(cols, catalog.Column{Name: "n_rows", Type: catalog.TypeInt64, NotNull: true})
	var aggCols []int
	for _, spec := range def.Aggregates {
		switch spec.Fn {
		case sqlmini.AggCount:
			idx := -1
			if spec.Col != "" {
				i, ok := src.ColIndex(spec.Col)
				if !ok {
					return nil, nil, 0, fmt.Errorf("warehouse: no column %q in %s", spec.Col, def.Source)
				}
				idx = i
			}
			aggCols = append(aggCols, idx)
			cols = append(cols, catalog.Column{Name: aggColName(spec), Type: catalog.TypeInt64, NotNull: true})
		case sqlmini.AggSum, sqlmini.AggAvg:
			i, ok := src.ColIndex(spec.Col)
			if !ok {
				return nil, nil, 0, fmt.Errorf("warehouse: no column %q in %s", spec.Col, def.Source)
			}
			typ := src.Column(i).Type
			if typ != catalog.TypeInt64 && typ != catalog.TypeFloat64 {
				return nil, nil, 0, fmt.Errorf("warehouse: %s over non-numeric column %q", spec.Fn, spec.Col)
			}
			outType := typ
			if spec.Fn == sqlmini.AggAvg {
				outType = catalog.TypeFloat64
			}
			aggCols = append(aggCols, i)
			cols = append(cols, catalog.Column{Name: aggColName(spec), Type: outType, NotNull: true})
		case sqlmini.AggMin, sqlmini.AggMax:
			return nil, nil, 0, fmt.Errorf(
				"warehouse: %s is not incrementally maintainable under deletes", spec.Fn)
		default:
			return nil, nil, 0, fmt.Errorf("warehouse: unknown aggregate %v", spec.Fn)
		}
	}
	return catalog.NewSchema(cols...), aggCols, groupIdx, nil
}

func aggColName(spec sqlmini.AggSpec) string {
	name := strings.ToLower(spec.Fn.String())
	if spec.Col != "" {
		name += "_" + strings.ToLower(spec.Col)
	}
	return name
}

// RegisterAggView materializes an aggregate view over a replica table
// (the replica provides the full images incremental folding needs).
// The view starts empty and fills as changes arrive; register it before
// loading data, or reload the replica afterwards.
func (w *Warehouse) RegisterAggView(def AggViewDef, srcSchema *catalog.Schema) (*AggView, error) {
	if def.Name == "" || def.Source == "" || len(def.Aggregates) == 0 {
		return nil, fmt.Errorf("warehouse: aggregate view needs Name, Source and Aggregates")
	}
	if !w.HasReplica(def.Source) {
		return nil, fmt.Errorf("warehouse: aggregate view %s requires a replica of %s", def.Name, def.Source)
	}
	schema, aggCols, groupIdx, err := aggViewSchema(def, srcSchema)
	if err != nil {
		return nil, err
	}
	v := &AggView{Def: def, SrcSchema: srcSchema, Schema: schema, groupIdx: groupIdx, aggCols: aggCols}
	pk := ""
	if groupIdx >= 0 {
		pk = srcSchema.Column(groupIdx).Name
	}
	table, err := w.DB.CreateTable(engine.TableDef{Name: def.Name, Schema: schema, PrimaryKey: pk})
	if err != nil {
		return nil, err
	}
	plan := &aggPlan{v: v, view: table, base: v.base()}
	if err := w.DB.CreateStatementHook(def.Source, engine.StatementHook{
		Name: "aggview_" + def.Name, Fn: plan.Apply,
	}); err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.aggs[strings.ToLower(def.Source)] = append(w.aggs[strings.ToLower(def.Source)], v)
	w.mu.Unlock()
	return v, nil
}

// base is the view column holding n_rows; the aggregates follow it.
func (v *AggView) base() int {
	if v.groupIdx >= 0 {
		return 1
	}
	return 0
}

// foldInto applies one signed row to the materialized accumulators in
// acc, whose n_rows sits at column base.
func (v *AggView) foldInto(acc catalog.Tuple, row catalog.Tuple, sign int64, base int) {
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
}

// AvgOf computes an AVG aggregate from a view row: the column stores
// the running sum, and AvgOf divides it by n_rows, the group's live row
// count. That is exact when the averaged column has no NULLs; for a
// NULL-aware average define the view with COUNT(col) next to AVG(col)
// and divide the two.
func (v *AggView) AvgOf(row catalog.Tuple, aggIndex int) float64 {
	base := v.base()
	n := row[base].Int()
	if n == 0 {
		return 0
	}
	sum := row[base+1+aggIndex]
	if sum.Type() == catalog.TypeInt64 {
		return float64(sum.Int()) / float64(n)
	}
	return sum.Float() / float64(n)
}
