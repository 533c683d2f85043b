package opdelta

import (
	"fmt"
	"strings"

	"opdelta/internal/sqlmini"
)

// ViewDef describes one select-project-join view materialized at the
// warehouse over source tables. The self-maintainability analysis
// classifies each source operation against these definitions, deciding
// whether the Op-Delta alone refreshes the view or whether the hybrid
// (op + before images) is required — the distinction §4.1 draws.
type ViewDef struct {
	// Name is the view's table name at the warehouse.
	Name string
	// Source is the (primary) source table.
	Source string
	// Project lists the source columns the view retains, in order.
	// Empty means all columns. Views should retain the source primary
	// key or maintenance degenerates to recomputation.
	Project []string
	// Where is the view's selection predicate over source columns
	// (nil = all rows).
	Where sqlmini.Expr
	// Join, when set, makes this a two-table equi-join view; the
	// warehouse keeps an auxiliary replica of the joined table.
	Join *JoinSpec
	// SourcePK names the source table's primary-key column. The
	// warehouse uses it to address view rows; when empty it is inferred
	// from the replica table if one exists.
	SourcePK string
	// SourceTS names the source table's engine-maintained timestamp
	// column, if any; op replay stamps it deterministically from the
	// op's capture time.
	SourceTS string
	// Rename maps source column names to warehouse column names — the
	// paper's transformation rules for warehouses whose schema differs
	// from the source. Unmapped columns keep their names.
	Rename map[string]string
}

// RenameOf returns the warehouse name of a source column under the
// view's transformation rules.
func (v *ViewDef) RenameOf(src string) string {
	for from, to := range v.Rename {
		if strings.EqualFold(from, src) {
			return to
		}
	}
	return src
}

// JoinSpec is an equi-join with a second source table.
type JoinSpec struct {
	Table    string
	LeftCol  string // column of Source
	RightCol string // column of Table
}

// Maintainability classifies an operation against a view.
type Maintainability uint8

// Classification outcomes, in increasing order of captured state.
const (
	// SelfMaintainable: the Op-Delta alone refreshes the view.
	SelfMaintainable Maintainability = iota
	// NeedsBefore: the op must be augmented with before images of the
	// rows it affects (the paper's hybrid capture).
	NeedsBefore
	// NeedsAux: refreshing also consults an auxiliary structure the
	// warehouse maintains (the join partner's replica).
	NeedsAux
)

// String names the classification.
func (m Maintainability) String() string {
	switch m {
	case SelfMaintainable:
		return "self-maintainable"
	case NeedsBefore:
		return "needs-before-image"
	case NeedsAux:
		return "needs-auxiliary"
	default:
		return "?"
	}
}

// projectSet returns the view's retained columns as a set; nil means
// "all columns".
func (v *ViewDef) projectSet() map[string]bool {
	if len(v.Project) == 0 {
		return nil
	}
	out := make(map[string]bool, len(v.Project))
	for _, c := range v.Project {
		out[strings.ToLower(c)] = true
	}
	return out
}

func subset(cols map[string]bool, of map[string]bool) bool {
	if of == nil {
		return true // full projection retains everything
	}
	for c := range cols {
		if !of[strings.ToLower(c)] {
			return false
		}
	}
	return true
}

func intersects(a, b map[string]bool) bool {
	for c := range a {
		if b[strings.ToLower(c)] {
			return true
		}
	}
	return false
}

// Classify decides how much captured state this view needs to be
// refreshed by stmt. Statements over unrelated tables classify as
// SelfMaintainable (they do not affect the view at all).
//
// The rules formalize §4.1's sufficient conditions for SPJ views:
//
//   - INSERT: the statement carries the complete new rows, so a
//     select-project view applies selection and projection to them
//     directly. A join view additionally probes the partner replica
//     (NeedsAux).
//   - DELETE: applicable to the view alone iff the predicate references
//     only retained columns; otherwise the before images of the deleted
//     rows are needed to identify the view rows.
//   - UPDATE: self-maintainable iff the predicate and every assignment
//     (targets and the columns their expressions read) stay within the
//     retained columns AND no assignment touches a selection-predicate
//     column (which could move unseen rows into the view).
func (v *ViewDef) Classify(stmt sqlmini.Statement) Maintainability {
	proj := v.projectSet()
	var selCols map[string]bool
	if v.Where != nil {
		selCols = sqlmini.Columns(v.Where)
	}
	switch s := stmt.(type) {
	case *sqlmini.Insert:
		if !strings.EqualFold(s.Table, v.Source) && (v.Join == nil || !strings.EqualFold(s.Table, v.Join.Table)) {
			return SelfMaintainable
		}
		if v.Join != nil {
			return NeedsAux
		}
		return SelfMaintainable
	case *sqlmini.Delete:
		if !strings.EqualFold(s.Table, v.Source) && (v.Join == nil || !strings.EqualFold(s.Table, v.Join.Table)) {
			return SelfMaintainable
		}
		if v.Join != nil {
			return NeedsAux
		}
		if s.Where == nil {
			return SelfMaintainable // delete-all maps to delete-all
		}
		if subset(sqlmini.Columns(s.Where), proj) {
			return SelfMaintainable
		}
		return NeedsBefore
	case *sqlmini.Update:
		if !strings.EqualFold(s.Table, v.Source) && (v.Join == nil || !strings.EqualFold(s.Table, v.Join.Table)) {
			return SelfMaintainable
		}
		if v.Join != nil {
			return NeedsAux
		}
		targets := make(map[string]bool, len(s.Assigns))
		reads := map[string]bool{}
		for _, a := range s.Assigns {
			targets[strings.ToLower(a.Col)] = true
			for c := range sqlmini.Columns(a.Value) {
				reads[strings.ToLower(c)] = true
			}
		}
		if selCols != nil && intersects(targets, selCols) {
			// Rows may migrate into the view; their full images are
			// unknown to the warehouse.
			return NeedsBefore
		}
		if s.Where != nil && !subset(sqlmini.Columns(s.Where), proj) {
			return NeedsBefore
		}
		if !subset(reads, proj) {
			return NeedsBefore
		}
		// Assignments to non-retained columns are no-ops on the view;
		// assignments to retained columns are applied directly.
		return SelfMaintainable
	default:
		return SelfMaintainable
	}
}

// Analyzer aggregates classification over every registered view.
type Analyzer struct {
	views []ViewDef
}

// NewAnalyzer builds an analyzer over the given view definitions.
func NewAnalyzer(views ...ViewDef) *Analyzer {
	return &Analyzer{views: append([]ViewDef(nil), views...)}
}

// AddView registers another view.
func (a *Analyzer) AddView(v ViewDef) { a.views = append(a.views, v) }

// Views returns the registered definitions.
func (a *Analyzer) Views() []ViewDef { return append([]ViewDef(nil), a.views...) }

// NeedsBeforeImages reports whether any registered view requires the
// hybrid capture (before images) for stmt.
func (a *Analyzer) NeedsBeforeImages(stmt sqlmini.Statement) bool {
	for i := range a.views {
		if a.views[i].Classify(stmt) == NeedsBefore {
			return true
		}
	}
	return false
}

// Validate sanity-checks a view definition against a source schema
// signature (column existence checks happen at warehouse registration;
// here we check structural coherence).
func (v *ViewDef) Validate() error {
	if v.Name == "" || v.Source == "" {
		return fmt.Errorf("opdelta: view needs Name and Source")
	}
	if v.Join != nil && (v.Join.Table == "" || v.Join.LeftCol == "" || v.Join.RightCol == "") {
		return fmt.Errorf("opdelta: view %s: incomplete join spec", v.Name)
	}
	return nil
}

// ColumnsOf exposes the predicate columns referenced by an expression
// set; used by the warehouse transformation rules.
func ColumnsOf(e sqlmini.Expr) map[string]bool {
	if e == nil {
		return nil
	}
	return sqlmini.Columns(e)
}
