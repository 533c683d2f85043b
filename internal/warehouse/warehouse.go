// Package warehouse implements the destination side of the pipeline: a
// warehouse database holding base-table replicas and materialized
// select-project(-join) views, plus the two integration strategies the
// paper compares —
//
//   - ValueDeltaIntegrator applies a differential file as one
//     indivisible batch transaction, one SQL statement per value-delta
//     record (updates become delete+insert pairs), holding the table
//     locks for the whole batch: the warehouse outage the paper
//     attributes to value-delta maintenance;
//   - ParallelIntegrator replays captured operations, each source
//     transaction as one small warehouse transaction, so maintenance
//     interleaves with OLAP queries; key-disjoint transactions run on a
//     worker pool, and one worker is serial replay in source order.
//
// Views are kept consistent by delta plans compiled at registration
// (viewplan.go) and installed as statement-level hooks on the replica
// tables, so both integrators maintain them identically, one set-oriented
// pass per replayed statement.
package warehouse

import (
	"fmt"
	"strings"
	"sync"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/opdelta"
)

// Warehouse wraps the destination engine with view bookkeeping.
type Warehouse struct {
	DB *engine.DB

	mu       sync.RWMutex
	replicas map[string]bool       // lower(source) -> replica registered
	views    map[string][]*View    // lower(source table) -> dependent views
	aggs     map[string][]*AggView // lower(source table) -> dependent agg views
	all      []*View
}

// View is one registered materialized view.
type View struct {
	Def       opdelta.ViewDef
	SrcSchema *catalog.Schema
	Schema    *catalog.Schema // view table schema
	sp        *spPlan         // compiled maintenance plan (SP views)

	// join views
	JoinSchema *catalog.Schema
	join       *joinPlan
}

// New creates a warehouse over db.
func New(db *engine.DB) *Warehouse {
	return &Warehouse{
		DB:       db,
		replicas: make(map[string]bool),
		views:    make(map[string][]*View),
		aggs:     make(map[string][]*AggView),
	}
}

// RegisterReplica creates a base-table replica with the same name and
// schema as the source table. Every op and value delta for that table
// is then applied to the replica, and dependent views follow via
// statement hooks.
func (w *Warehouse) RegisterReplica(source string, schema *catalog.Schema, primaryKey, tsCol string) error {
	key := strings.ToLower(source)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.replicas[key] {
		return fmt.Errorf("warehouse: replica of %s already registered", source)
	}
	if _, err := w.DB.Table(source); err != nil {
		if _, err := w.DB.CreateTable(engine.TableDef{
			Name: source, Schema: schema, PrimaryKey: primaryKey, TimestampCol: tsCol,
		}); err != nil {
			return err
		}
	}
	w.replicas[key] = true
	return nil
}

// HasReplica reports whether a replica of the source table exists.
func (w *Warehouse) HasReplica(source string) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.replicas[strings.ToLower(source)]
}

// ViewsOn returns the views that depend on a source table.
func (w *Warehouse) ViewsOn(source string) []*View {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.views[strings.ToLower(source)]
}

// AggViewsOn returns the aggregate views that depend on a source table.
func (w *Warehouse) AggViewsOn(source string) []*AggView {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.aggs[strings.ToLower(source)]
}

// Views returns every registered view.
func (w *Warehouse) Views() []*View {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return append([]*View(nil), w.all...)
}

// RegisterView materializes a view. SP views need the source schema;
// join views additionally need the join partner's schema and replicas
// of both sources (registered beforehand), because incremental join
// maintenance probes the partner's state.
func (w *Warehouse) RegisterView(def opdelta.ViewDef, srcSchema, joinSchema *catalog.Schema) (*View, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if def.Join != nil {
		return w.registerJoinView(def, srcSchema, joinSchema)
	}
	v := &View{Def: def, SrcSchema: srcSchema}
	projNames := def.Project
	if len(projNames) == 0 {
		projNames = nil
		for _, c := range srcSchema.Columns() {
			projNames = append(projNames, c.Name)
		}
	}
	cols := make([]catalog.Column, 0, len(projNames))
	var proj []int // source column per view column
	for _, name := range projNames {
		i, ok := srcSchema.ColIndex(name)
		if !ok {
			return nil, fmt.Errorf("warehouse: view %s projects unknown column %q", def.Name, name)
		}
		proj = append(proj, i)
		col := srcSchema.Column(i)
		col.Name = def.RenameOf(col.Name) // transformation rule: rename
		cols = append(cols, col)
	}
	v.Schema = catalog.NewSchema(cols...)
	// Identify the source PK inside the view, if retained: maintenance
	// addresses view rows by it. The definition may name it
	// explicitly; otherwise it is inferred from the replica table.
	pkName := def.SourcePK
	if pkName == "" {
		if inferred, err := w.sourcePKName(def.Source); err == nil {
			pkName = inferred
		}
	}
	viewPK, pkInView := "", -1
	if pkName != "" {
		if i, ok := v.Schema.ColIndex(def.RenameOf(pkName)); ok {
			viewPK, pkInView = def.RenameOf(pkName), i
		}
	}
	table, err := w.DB.CreateTable(engine.TableDef{Name: def.Name, Schema: v.Schema, PrimaryKey: viewPK})
	if err != nil {
		return nil, err
	}
	v.sp = &spPlan{view: table, src: srcSchema, where: def.Where, proj: proj, pkInView: pkInView}
	w.mu.Lock()
	w.views[strings.ToLower(def.Source)] = append(w.views[strings.ToLower(def.Source)], v)
	w.all = append(w.all, v)
	hasReplica := w.replicas[strings.ToLower(def.Source)]
	w.mu.Unlock()
	if hasReplica {
		// The replica's statements drive the view; without one the
		// integrators feed the plan themselves (integrate.go).
		if err := w.DB.CreateStatementHook(def.Source, engine.StatementHook{
			Name: "view_" + def.Name, Fn: v.sp.Apply,
		}); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// sourcePKName returns the PK column name of a replica table at the
// warehouse, or an error when no replica exists.
func (w *Warehouse) sourcePKName(source string) (string, error) {
	t, err := w.DB.Table(source)
	if err != nil {
		return "", err
	}
	if t.PKCol < 0 {
		return "", nil
	}
	return t.Schema.Column(t.PKCol).Name, nil
}
