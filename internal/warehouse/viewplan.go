package warehouse

import (
	"fmt"
	"math"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/sqlmini"
)

// Delta plans: every view is compiled at registration into a plan whose
// Apply takes one statement's transition tables (engine.StatementDelta)
// and does set-oriented work against the view's table through the
// engine's keyed row access — column positions, table handles and key
// extractors are resolved once, and nothing on the per-row path builds
// or interprets a statement. With a replica the plans are installed as
// statement hooks on it; the view-only integration paths build the same
// deltas from before images or a statement's literal rows and call
// Apply directly. DESIGN §17 has the contract.

// valueKey is a comparable stand-in for a catalog.Value, for maps keyed
// by a group or join key. Values equal under catalog.Compare map to the
// same key: floats are keyed by their bits with the two zeros and all
// NaNs folded together.
type valueKey struct {
	typ  catalog.Type
	null bool
	n    int64
	s    string
}

func keyOf(v catalog.Value) valueKey {
	k := valueKey{typ: v.Type()}
	if v.IsNull() {
		k.null = true
		return k
	}
	switch v.Type() {
	case catalog.TypeInt64:
		k.n = v.Int()
	case catalog.TypeTime:
		k.n = v.Time().UnixNano()
	case catalog.TypeBool:
		if v.Bool() {
			k.n = 1
		}
	case catalog.TypeFloat64:
		f := v.Float()
		switch {
		case f == 0:
			f = 0 // -0 and +0 are one key
		case f != f:
			f = math.NaN()
		}
		k.n = int64(math.Float64bits(f))
	case catalog.TypeString:
		k.s = v.Str()
	case catalog.TypeBytes:
		k.s = string(v.BytesVal())
	}
	return k
}

// sameValue is catalog.Equal with NULL equal to NULL: "this column did
// not change".
func sameValue(a, b catalog.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return catalog.Equal(a, b)
}

func unchanged(before, after catalog.Tuple, cols []int) bool {
	for _, c := range cols {
		if !sameValue(before[c], after[c]) {
			return false
		}
	}
	return true
}

// spPlan maintains one select-project view.
type spPlan struct {
	view     *engine.Table
	src      *catalog.Schema
	where    sqlmini.Expr // selection over source rows, nil = all
	proj     []int        // source column per view column
	pkInView int          // view column holding the source PK, -1 if dropped
}

func (p *spPlan) matches(row catalog.Tuple) (bool, error) {
	return sqlmini.EvalPredicate(p.where, p.src, row)
}

func (p *spPlan) project(row catalog.Tuple) catalog.Tuple {
	out := make(catalog.Tuple, len(p.proj))
	for i, c := range p.proj {
		out[i] = row[c]
	}
	return out
}

// Apply folds one statement on the source into the view. Rows whose key
// stays are rewritten in place as one batch, and left alone when no
// projected column changed; the other view rows are written deletes
// first, then inserts, each as one batch, so a statement that shifts
// keys onto one another (SET part_id = part_id + 1 over a sparse range)
// never meets its own not-yet-moved rows.
func (p *spPlan) Apply(tx *engine.Tx, d *engine.StatementDelta) error {
	var gone, born, kept []catalog.Tuple
	switch d.Op {
	case engine.TrigInsert:
		born = make([]catalog.Tuple, 0, len(d.After))
		for _, after := range d.After {
			if ok, err := p.matches(after); err != nil {
				return err
			} else if ok {
				born = append(born, p.project(after))
			}
		}
	case engine.TrigDelete:
		gone = make([]catalog.Tuple, 0, len(d.Before))
		for _, before := range d.Before {
			if ok, err := p.matches(before); err != nil {
				return err
			} else if ok {
				gone = append(gone, p.project(before))
			}
		}
	case engine.TrigUpdate:
		for i, before := range d.Before {
			after := d.After[i]
			inBefore, err := p.matches(before)
			if err != nil {
				return err
			}
			inAfter, err := p.matches(after)
			if err != nil {
				return err
			}
			if inBefore && inAfter {
				if unchanged(before, after, p.proj) {
					continue
				}
				if p.pkInView >= 0 && sameValue(before[p.proj[p.pkInView]], after[p.proj[p.pkInView]]) {
					kept = append(kept, p.project(after))
					continue
				}
			}
			if inBefore {
				gone = append(gone, p.project(before))
			}
			if inAfter {
				born = append(born, p.project(after))
			}
		}
	}
	if err := p.rewrite(tx, kept); err != nil {
		return err
	}
	if err := p.deleteRows(tx, gone); err != nil {
		return err
	}
	return insertAll(tx, p.view, born)
}

// rewrite replaces the view rows carrying the given rows' keys, and
// inserts the rows the view has none for.
func (p *spPlan) rewrite(tx *engine.Tx, rows []catalog.Tuple) error {
	if len(rows) == 0 {
		return nil
	}
	found, err := tx.RowsByKeys(p.view, p.pkInView, column(rows, p.pkInView), true)
	if err != nil {
		return err
	}
	olds := make([]engine.Row, 0, len(rows))
	afters := make([]catalog.Tuple, 0, len(rows))
	var missing []catalog.Tuple
	for i, row := range rows {
		if len(found[i]) == 0 {
			missing = append(missing, row)
			continue
		}
		olds, afters = append(olds, found[i][0]), append(afters, row)
	}
	if len(olds) > 0 {
		if err := tx.UpdateBatch(p.view, olds, afters); err != nil {
			return err
		}
	}
	return insertAll(tx, p.view, missing)
}

// column returns every row's value in column col.
func column(rows []catalog.Tuple, col int) []catalog.Value {
	out := make([]catalog.Value, len(rows))
	for i, row := range rows {
		out[i] = row[col]
	}
	return out
}

// flatten concatenates RowsByKeys' per-key rows.
func flatten(found [][]engine.Row) []engine.Row {
	n := 0
	for _, rs := range found {
		n += len(rs)
	}
	out := make([]engine.Row, 0, n)
	for _, rs := range found {
		out = append(out, rs...)
	}
	return out
}

// insertAll inserts rows into view as one batch; none is no call.
func insertAll(tx *engine.Tx, view *engine.Table, rows []catalog.Tuple) error {
	if len(rows) == 0 {
		return nil
	}
	return tx.InsertBatch(view, rows)
}

// deleteAll deletes rows from view as one batch; none is no call.
func deleteAll(tx *engine.Tx, view *engine.Table, rows []engine.Row) error {
	if len(rows) == 0 {
		return nil
	}
	return tx.DeleteBatch(view, rows)
}

// upsert applies an after image that comes with no before image (the
// timestamp method cannot tell insert from update): whatever view row
// carries the key gives way to it. A view without the key can only add.
func (p *spPlan) upsert(tx *engine.Tx, after catalog.Tuple) error {
	in, err := p.matches(after)
	if err != nil {
		return err
	}
	if p.pkInView < 0 {
		if in {
			return tx.InsertRow(p.view, p.project(after))
		}
		return nil
	}
	row := p.project(after)
	if in {
		return p.rewrite(tx, []catalog.Tuple{row})
	}
	return p.deleteRows(tx, []catalog.Tuple{row})
}

// deleteRows removes one view row per given row: by key when the view
// keeps the source PK, otherwise exactly one stored occurrence of each
// — duplicates other source rows contributed stay — found in a single
// scan of the view for the whole batch.
func (p *spPlan) deleteRows(tx *engine.Tx, rows []catalog.Tuple) error {
	if len(rows) == 0 {
		return nil
	}
	if p.pkInView >= 0 {
		found, err := tx.RowsByKeys(p.view, p.pkInView, column(rows, p.pkInView), true)
		if err != nil {
			return err
		}
		return deleteAll(tx, p.view, flatten(found))
	}
	// The stored bytes of a view row are the encoding of the projected
	// source image, so byte equality is row equality.
	want := make(map[string]int, len(rows))
	var buf []byte
	for _, row := range rows {
		enc, err := catalog.EncodeTuple(buf[:0], p.view.Schema, row)
		if err != nil {
			return err
		}
		buf = enc
		want[string(enc)]++
	}
	left := len(rows)
	var victims []engine.Row
	err := tx.ScanRows(p.view, true, func(r engine.Row) (bool, error) {
		if n := want[string(r.Encoded())]; n > 0 {
			want[string(r.Encoded())] = n - 1
			victims = append(victims, r)
			left--
		}
		return left > 0, nil
	})
	if err != nil {
		return err
	}
	return deleteAll(tx, p.view, victims)
}

// Join sides.
const (
	leftSide  = 0
	rightSide = 1
)

// joinCol places one view column: which side it is projected from and
// the column's position in that side's schema.
type joinCol struct {
	side, col int
}

// joinPlan maintains one equi-join view from either side's deltas. A
// view row is one (left row, right row) pair with equal join keys whose
// left row passes the selection; it is addressed by either side's
// primary key, both of which the view projects.
type joinPlan struct {
	view       *engine.Table
	tables     [2]*engine.Table // the two replicas
	joinCol    [2]int           // join column in each side's schema
	pkCol      [2]int           // primary key in each side's schema
	pkInView   [2]int           // and in the view's
	cols       []joinCol        // per view column
	own        [2][]int         // each side's projected columns (in its schema)
	where      sqlmini.Expr     // selection over left rows
	leftSchema *catalog.Schema
}

// selected applies the view's selection, which is over left rows only.
func (p *joinPlan) selected(side int, row catalog.Tuple) (bool, error) {
	if side != leftSide {
		return true, nil
	}
	return sqlmini.EvalPredicate(p.where, p.leftSchema, row)
}

func (p *joinPlan) combine(left, right catalog.Tuple) catalog.Tuple {
	sides := [2]catalog.Tuple{left, right}
	out := make(catalog.Tuple, len(p.cols))
	for i, c := range p.cols {
		out[i] = sides[c.side][c.col]
	}
	return out
}

// applySide folds one statement on the given side's replica into the
// view. An UPDATE that keeps a row's primary key, join key and
// selection outcome leaves its partners as they were: its view rows are
// patched in place (or left alone when none of the side's projected
// columns changed). Everything else is deletes for the whole batch,
// then inserts, with one partner probe for all distinct join keys.
func (p *joinPlan) applySide(tx *engine.Tx, side int, d *engine.StatementDelta) error {
	var gone []catalog.Value // side primary keys whose view rows go
	var born []catalog.Tuple // side rows to pair with their partners
	var kept []catalog.Tuple // side rows whose view rows are patched
	pk, jc := p.pkCol[side], p.joinCol[side]
	switch d.Op {
	case engine.TrigInsert:
		born = make([]catalog.Tuple, 0, len(d.After))
		for _, after := range d.After {
			if ok, err := p.selected(side, after); err != nil {
				return err
			} else if ok {
				born = append(born, after)
			}
		}
	case engine.TrigDelete:
		gone = make([]catalog.Value, 0, len(d.Before))
		for _, before := range d.Before {
			if ok, err := p.selected(side, before); err != nil {
				return err
			} else if ok {
				gone = append(gone, before[pk])
			}
		}
	case engine.TrigUpdate:
		for i, before := range d.Before {
			after := d.After[i]
			inBefore, err := p.selected(side, before)
			if err != nil {
				return err
			}
			inAfter, err := p.selected(side, after)
			if err != nil {
				return err
			}
			if !inBefore && !inAfter {
				continue
			}
			if inBefore && inAfter && sameValue(before[pk], after[pk]) && sameValue(before[jc], after[jc]) {
				if !unchanged(before, after, p.own[side]) {
					kept = append(kept, after)
				}
				continue
			}
			if inBefore {
				gone = append(gone, before[pk])
			}
			if inAfter {
				born = append(born, after)
			}
		}
	}
	if err := p.patch(tx, side, kept); err != nil {
		return err
	}
	if len(gone) > 0 {
		found, err := tx.RowsByKeys(p.view, p.pkInView[side], gone, true)
		if err != nil {
			return err
		}
		if err := deleteAll(tx, p.view, flatten(found)); err != nil {
			return err
		}
	}
	return p.insertPairs(tx, side, born)
}

// patch rewrites the side's projected columns in the view rows of side
// rows whose key and partners stay, as one batch.
func (p *joinPlan) patch(tx *engine.Tx, side int, rows []catalog.Tuple) error {
	if len(rows) == 0 {
		return nil
	}
	found, err := tx.RowsByKeys(p.view, p.pkInView[side], column(rows, p.pkCol[side]), true)
	if err != nil {
		return err
	}
	olds := make([]engine.Row, 0, len(rows))
	nexts := make([]catalog.Tuple, 0, len(rows))
	for i, after := range rows {
		for _, r := range found[i] {
			next := make(catalog.Tuple, len(r.Tuple))
			copy(next, r.Tuple)
			for c, jc := range p.cols {
				if jc.side == side {
					next[c] = after[jc.col]
				}
			}
			olds, nexts = append(olds, r), append(nexts, next)
		}
	}
	if len(olds) == 0 {
		return nil
	}
	return tx.UpdateBatch(p.view, olds, nexts)
}

// insertPairs joins the side's (selected) rows with the other side's
// replica, probing once for all distinct join keys, and inserts the
// pairs as one batch.
func (p *joinPlan) insertPairs(tx *engine.Tx, side int, rows []catalog.Tuple) error {
	if len(rows) == 0 {
		return nil
	}
	other := 1 - side
	slot := make(map[valueKey]int) // distinct join key -> its probe
	var probe []catalog.Value
	for _, row := range rows {
		key := row[p.joinCol[side]]
		if key.IsNull() {
			continue // NULL join keys never match
		}
		if _, seen := slot[keyOf(key)]; !seen {
			slot[keyOf(key)] = len(probe)
			probe = append(probe, key)
		}
	}
	if len(probe) == 0 {
		return nil
	}
	found, err := tx.RowsByKeys(p.tables[other], p.joinCol[other], probe, false)
	if err != nil {
		return err
	}
	partners := make([][]catalog.Tuple, len(probe))
	for i, rs := range found {
		for _, r := range rs {
			if ok, err := p.selected(other, r.Tuple); err != nil {
				return err
			} else if ok {
				partners[i] = append(partners[i], r.Tuple)
			}
		}
	}
	var pairs []catalog.Tuple
	for _, row := range rows {
		key := row[p.joinCol[side]]
		if key.IsNull() {
			continue
		}
		for _, partner := range partners[slot[keyOf(key)]] {
			pair := [2]catalog.Tuple{}
			pair[side], pair[other] = row, partner
			pairs = append(pairs, p.combine(pair[leftSide], pair[rightSide]))
		}
	}
	return insertAll(tx, p.view, pairs)
}

// aggPlan maintains one aggregate view.
type aggPlan struct {
	v    *AggView
	view *engine.Table
	base int // view column of n_rows: 1 behind a group column, else 0
}

// aggGroup is one group a statement touched: the row the view held when
// the statement first reached the group, and the accumulator since.
type aggGroup struct {
	key    catalog.Value // the group-by value; NULL for an ungrouped view
	stored engine.Row
	found  bool          // stored is a row of the view
	acc    catalog.Tuple // nil while the group has no live rows
}

// Apply loads every group the statement touches with one read, folds
// the statement's rows into the loaded accumulators in row order — an
// UPDATE's before image out, then its after image in, row by row, so
// every group sees its additions in the order per-row maintenance would
// apply them and float sums come out bit-identical — and writes the
// groups as one batch per kind of write. A group that empties forgets
// its accumulator (a float sum need not return to exactly zero) and
// restarts from zero if a later row of the statement revives it.
func (p *aggPlan) Apply(tx *engine.Tx, d *engine.StatementDelta) error {
	groups := make(map[valueKey]*aggGroup)
	var order []*aggGroup // first-touch order, for repeatable writes
	var keys []catalog.Value
	v := p.v
	// The rows that fold, with the group each folds into.
	type step struct {
		row  catalog.Tuple
		sign int64
		g    *aggGroup
	}
	steps := make([]step, 0, len(d.Before)+len(d.After))
	add := func(row catalog.Tuple, sign int64) error {
		if ok, err := sqlmini.EvalPredicate(v.Def.Where, v.SrcSchema, row); err != nil || !ok {
			return err
		}
		var key catalog.Value
		if v.groupIdx >= 0 {
			key = row[v.groupIdx]
		}
		k := keyOf(key)
		g := groups[k]
		if g == nil {
			g = &aggGroup{key: key}
			groups[k] = g
			order = append(order, g)
			keys = append(keys, key)
		}
		steps = append(steps, step{row: row, sign: sign, g: g})
		return nil
	}
	for i := 0; i < len(d.Before) || i < len(d.After); i++ {
		if i < len(d.Before) {
			if err := add(d.Before[i], -1); err != nil {
				return err
			}
		}
		if i < len(d.After) {
			if err := add(d.After[i], +1); err != nil {
				return err
			}
		}
	}
	if err := p.load(tx, order, keys); err != nil {
		return err
	}
	for _, st := range steps {
		g := st.g
		if g.acc == nil {
			if st.sign < 0 {
				return fmt.Errorf("warehouse: aggregate view %s: delete for missing group (view registered after data load?)", v.Def.Name)
			}
			g.acc = p.zero(g.key)
		}
		v.foldInto(g.acc, st.row, st.sign, p.base)
		if g.acc[p.base].Int() == 0 {
			g.acc = nil
		}
	}
	var gone, olds []engine.Row
	var afters, born []catalog.Tuple
	for _, g := range order {
		switch {
		case g.found && g.acc == nil:
			gone = append(gone, g.stored)
		case g.found:
			if !g.acc.Equal(g.stored.Tuple) {
				olds, afters = append(olds, g.stored), append(afters, g.acc)
			}
		case g.acc != nil:
			born = append(born, g.acc)
		}
	}
	if err := deleteAll(tx, p.view, gone); err != nil {
		return err
	}
	if len(olds) > 0 {
		if err := tx.UpdateBatch(p.view, olds, afters); err != nil {
			return err
		}
	}
	return insertAll(tx, p.view, born)
}

// load reads the stored rows of the given groups, taking the exclusive
// locks their rewrite will need.
func (p *aggPlan) load(tx *engine.Tx, groups []*aggGroup, keys []catalog.Value) error {
	if len(groups) == 0 {
		return nil
	}
	if p.v.groupIdx >= 0 {
		found, err := tx.RowsByKeys(p.view, 0, keys, true)
		if err != nil {
			return err
		}
		for i, g := range groups {
			if len(found[i]) > 0 {
				g.stored, g.found = found[i][0], true
			}
		}
	} else {
		// An ungrouped view is one row at most.
		g := groups[0]
		err := tx.ScanRows(p.view, true, func(r engine.Row) (bool, error) {
			g.stored, g.found = r, true
			return false, nil
		})
		if err != nil {
			return err
		}
	}
	for _, g := range groups {
		if g.found {
			g.acc = g.stored.Tuple.Clone()
		}
	}
	return nil
}

// zero is a fresh group's accumulator.
func (p *aggPlan) zero(key catalog.Value) catalog.Tuple {
	acc := make(catalog.Tuple, p.view.Schema.NumColumns())
	if p.base == 1 {
		acc[0] = key
	}
	for i := p.base; i < len(acc); i++ {
		if p.view.Schema.Column(i).Type == catalog.TypeInt64 {
			acc[i] = catalog.NewInt(0)
		} else {
			acc[i] = catalog.NewFloat(0)
		}
	}
	return acc
}
