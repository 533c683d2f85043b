// Package keyset owns how a WHERE clause bounds a key. It is the
// primary-key interval algebra shared by the statement footprint
// analysis (internal/opdelta), the hierarchical lock manager
// (internal/txn), and the executor (internal/engine), which plans both
// its statement locks and its index access paths — primary-key ranges,
// secondary-index ranges, snapshot range reads — through it. It is a
// leaf package — it may import only the catalog and the SQL AST — so
// every layer of the stack reads a comparison the same way: column
// against literal, either operand order, the literal coerced to the
// column's type by catalog.Coerce.
//
// A Footprint over-approximates the set of primary-key values one
// statement can reach, as a union of intervals. Two statements whose
// footprints are disjoint commute; anything the analysis cannot bound
// degrades to the whole table, which only costs parallelism, never
// correctness. ExactRange is the stricter reading an access path needs:
// the interval a predicate selects exactly, or nothing.
package keyset

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"opdelta/internal/catalog"
	"opdelta/internal/sqlmini"
)

// KeyRange is an interval over primary-key values. An unset Has bound
// flag means the interval is unbounded on that side; an Open flag marks
// a strict (half-open) bound, so {Lo:5, HasLo:true, LoOpen:true} is
// (5, +inf). A point key is the degenerate closed interval [v, v].
type KeyRange struct {
	Lo, Hi         catalog.Value
	HasLo, HasHi   bool
	LoOpen, HiOpen bool
}

// Point returns the closed single-key interval [v, v].
func Point(v catalog.Value) KeyRange {
	return KeyRange{Lo: v, Hi: v, HasLo: true, HasHi: true}
}

// String renders the range in interval notation for error messages.
func (r KeyRange) String() string {
	var b strings.Builder
	if r.HasLo {
		if r.LoOpen {
			b.WriteByte('(')
		} else {
			b.WriteByte('[')
		}
		b.WriteString(r.Lo.String())
	} else {
		b.WriteString("(-inf")
	}
	b.WriteString(", ")
	if r.HasHi {
		b.WriteString(r.Hi.String())
		if r.HiOpen {
			b.WriteByte(')')
		} else {
			b.WriteByte(']')
		}
	} else {
		b.WriteString("+inf)")
	}
	return b.String()
}

// cmpBound compares two values, reporting incomparable pairs (mixed or
// null types) so callers can fall back conservatively.
func cmpBound(a, b catalog.Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	c, err := catalog.Compare(a, b)
	if err != nil {
		return 0, false
	}
	return c, true
}

// Intersects reports whether two intervals can share a key. A closed
// bound meeting an equal closed bound shares the endpoint; if either
// side is open at the meeting point the intervals are disjoint. Any
// incomparable bound counts as overlapping (conservative).
func (r KeyRange) Intersects(o KeyRange) bool {
	if r.HasHi && o.HasLo {
		if c, ok := cmpBound(r.Hi, o.Lo); ok && (c < 0 || (c == 0 && (r.HiOpen || o.LoOpen))) {
			return false
		}
	}
	if o.HasHi && r.HasLo {
		if c, ok := cmpBound(o.Hi, r.Lo); ok && (c < 0 || (c == 0 && (o.HiOpen || r.LoOpen))) {
			return false
		}
	}
	return true
}

// Contains reports whether r is a superset of o. Incomparable bounds
// report false: callers use containment to skip lock acquisition, so a
// false negative is safe and a false positive is not — the mirror image
// of Intersects' conservatism.
func (r KeyRange) Contains(o KeyRange) bool {
	if r.HasLo {
		if !o.HasLo {
			return false
		}
		c, ok := cmpBound(r.Lo, o.Lo)
		if !ok || c > 0 || (c == 0 && r.LoOpen && !o.LoOpen) {
			return false
		}
	}
	if r.HasHi {
		if !o.HasHi {
			return false
		}
		c, ok := cmpBound(r.Hi, o.Hi)
		if !ok || c < 0 || (c == 0 && r.HiOpen && !o.HiOpen) {
			return false
		}
	}
	return true
}

// TotalCompare orders any two values totally: NULLs first, then the
// catalog order where it is defined (same types, or int/float cross),
// then by type identifier for the mixed pairs the catalog refuses.
// Conflict detection never uses this — it exists so ordered structures
// (the lock manager's interval tree, canonical lock-set sorting) can
// hold arbitrary values without panicking.
func TotalCompare(a, b catalog.Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if c, err := catalog.Compare(a, b); err == nil {
		return c
	}
	at, bt := a.Type(), b.Type()
	switch {
	case at < bt:
		return -1
	case at > bt:
		return 1
	default:
		return 0
	}
}

// CompareLo orders ranges by lower bound: unbounded first, then the
// bound value, closed before open at the same value (the closed
// interval starts earlier).
func CompareLo(a, b KeyRange) int {
	switch {
	case !a.HasLo && !b.HasLo:
		return 0
	case !a.HasLo:
		return -1
	case !b.HasLo:
		return 1
	}
	if c := TotalCompare(a.Lo, b.Lo); c != 0 {
		return c
	}
	switch {
	case a.LoOpen == b.LoOpen:
		return 0
	case b.LoOpen:
		return -1
	default:
		return 1
	}
}

// SortRanges puts ranges in the canonical order used for deadlock-free
// multi-range lock acquisition: by lower bound under compareLo.
func SortRanges(rs []KeyRange) {
	slices.SortStableFunc(rs, CompareLo)
}

// MergeRanges sorts a copy of rs and coalesces intervals whose union is
// itself an interval: overlapping ranges, and ranges meeting at an
// equal bound where at least one side is closed ([1,5) and [5,9] merge
// to [1,9]; [1,5) and (5,9] do not — the union has a hole at 5). The
// result covers exactly the same keys with fewer intervals, which keeps
// pre-declared lock sets small.
func MergeRanges(rs []KeyRange) []KeyRange {
	if len(rs) <= 1 {
		return append([]KeyRange(nil), rs...)
	}
	sorted := append([]KeyRange(nil), rs...)
	SortRanges(sorted)
	out := sorted[:1]
	for _, next := range sorted[1:] {
		cur := &out[len(out)-1]
		if cur.Intersects(next) || touches(*cur, next) {
			*cur = hull(*cur, next)
			continue
		}
		out = append(out, next)
	}
	return out
}

// LockRanges turns ranges into the fewest ranges to lock. On top of
// MergeRanges it joins closed integer bounds that are consecutive —
// [1,1] and [2,2] into [1,2] — which MergeRanges cannot do because it
// does not know the key's domain: a 1000-row INSERT of ascending BIGINT
// keys then locks one range, not 1000 points. Only integer-typed bounds
// are joined, and integer bounds come only from a BIGINT key (footprint
// analysis converts them for a DOUBLE key), so the joined range covers
// no key outside the input.
func LockRanges(rs []KeyRange) []KeyRange {
	merged := MergeRanges(rs)
	out := merged[:0]
	for _, r := range merged {
		if n := len(out); n > 0 {
			cur := &out[n-1]
			if cur.HasHi && !cur.HiOpen && r.HasLo && !r.LoOpen &&
				cur.Hi.Type() == catalog.TypeInt64 && r.Lo.Type() == catalog.TypeInt64 &&
				cur.Hi.Int() < math.MaxInt64 && r.Lo.Int() == cur.Hi.Int()+1 {
				cur.Hi, cur.HasHi, cur.HiOpen = r.Hi, r.HasHi, r.HiOpen
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// touches reports two sorted ranges meeting at an equal bound with no
// gap between them.
func touches(a, b KeyRange) bool {
	if !a.HasHi || !b.HasLo {
		return false
	}
	c, ok := cmpBound(a.Hi, b.Lo)
	return ok && c == 0 && !(a.HiOpen && b.LoOpen)
}

// hull returns the smallest interval containing both inputs, where a
// (the earlier range under compareLo) supplies the lower bound.
func hull(a, b KeyRange) KeyRange {
	out := a
	if !b.HasHi {
		out.HasHi, out.HiOpen = false, false
		return out
	}
	if !out.HasHi {
		return out
	}
	c := TotalCompare(b.Hi, out.Hi)
	if c > 0 || (c == 0 && out.HiOpen && !b.HiOpen) {
		out.Hi, out.HiOpen = b.Hi, b.HiOpen
	}
	return out
}

// Footprint is the key set one statement touches on one table. Whole
// marks the conservative fallback — the statement may touch any key —
// in which case Ranges is meaningless.
type Footprint struct {
	Whole  bool
	Ranges []KeyRange
}

// WholeTable is the footprint that conflicts with everything on its
// table.
func WholeTable() Footprint { return Footprint{Whole: true} }

// Overlaps reports whether two footprints can touch a common key.
func (f Footprint) Overlaps(g Footprint) bool {
	if f.Whole || g.Whole {
		return true
	}
	for _, ra := range f.Ranges {
		for _, rb := range g.Ranges {
			if ra.Intersects(rb) {
				return true
			}
		}
	}
	return false
}

// Union merges g into f.
func (f Footprint) Union(g Footprint) Footprint { return unionFootprints(f, g) }

// Empty reports a footprint that touches no keys (an UPDATE whose
// predicate is unsatisfiable still parses to this).
func (f Footprint) Empty() bool { return !f.Whole && len(f.Ranges) == 0 }

func unionFootprints(a, b Footprint) Footprint {
	if a.Whole || b.Whole {
		return WholeTable()
	}
	return Footprint{Ranges: append(append([]KeyRange(nil), a.Ranges...), b.Ranges...)}
}

func intersectFootprints(a, b Footprint) Footprint {
	if a.Whole {
		return b
	}
	if b.Whole {
		return a
	}
	var out Footprint
	for _, ra := range a.Ranges {
		for _, rb := range b.Ranges {
			if r, ok := intersectRange(ra, rb); ok {
				out.Ranges = append(out.Ranges, r)
			}
		}
	}
	return out
}

// intersectRange returns the overlap of two intervals, when non-empty.
func intersectRange(a, b KeyRange) (KeyRange, bool) {
	if !a.Intersects(b) {
		return KeyRange{}, false
	}
	return narrow(a, b), true
}

// narrow returns a with each bound tightened to b's where b's is
// stricter; at an equal bound the open flag wins. Disjoint inputs give
// an empty interval (lower bound above the upper), which an index walk
// visits as nothing. Incomparable bounds keep a's.
func narrow(a, b KeyRange) KeyRange {
	out := a
	if b.HasLo {
		if !out.HasLo {
			out.Lo, out.HasLo, out.LoOpen = b.Lo, true, b.LoOpen
		} else if c, ok := cmpBound(b.Lo, out.Lo); ok && (c > 0 || (c == 0 && b.LoOpen && !out.LoOpen)) {
			out.Lo, out.LoOpen = b.Lo, b.LoOpen
		}
	}
	if b.HasHi {
		if !out.HasHi {
			out.Hi, out.HasHi, out.HiOpen = b.Hi, true, b.HiOpen
		} else if c, ok := cmpBound(b.Hi, out.Hi); ok && (c < 0 || (c == 0 && b.HiOpen && !out.HiOpen)) {
			out.Hi, out.HiOpen = b.Hi, b.HiOpen
		}
	}
	return out
}

// StatementFootprint computes the key footprint of stmt on its own
// table, given the source schema and the primary-key column name. An
// empty pk, an unanalyzable predicate, a key literal whose type does
// not match the key column, or a statement kind the analysis doesn't
// model all yield the whole-table footprint.
func StatementFootprint(stmt sqlmini.Statement, schema *catalog.Schema, pk string) Footprint {
	if pk == "" {
		return WholeTable()
	}
	key := keyColumn(schema, pk)
	switch s := stmt.(type) {
	case *sqlmini.Insert:
		return insertFootprint(s, schema, key)
	case *sqlmini.Delete:
		return predicateFootprint(s.Where, key)
	case *sqlmini.Update:
		fp := predicateFootprint(s.Where, key)
		// An assignment to the key itself adds the assigned value (when
		// literal) to the write set; anything computed defeats analysis.
		for _, a := range s.Assigns {
			if !strings.EqualFold(a.Col, pk) {
				continue
			}
			lit, ok := a.Value.(*sqlmini.Literal)
			if !ok {
				return WholeTable()
			}
			v, ok := normalizeKeyLiteral(lit.Val, key)
			if !ok {
				return WholeTable()
			}
			fp = unionFootprints(fp, Footprint{Ranges: []KeyRange{Point(v)}})
		}
		return fp
	default:
		return WholeTable()
	}
}

// keyColumn resolves the key column in schema. A key the schema does
// not know (or a nil schema) comes back with TypeInvalid, and its
// literals pass through unchecked, preserving the conservative overlap
// handling downstream.
func keyColumn(schema *catalog.Schema, pk string) catalog.Column {
	if schema != nil {
		if i, ok := schema.ColIndex(pk); ok {
			return schema.Column(i)
		}
	}
	return catalog.Column{Name: pk}
}

// normalizeKeyLiteral coerces a key literal to the key column's type
// the way the executor does (catalog.Coerce: an int literal on a float
// key). A NULL literal, or a literal of any other mismatched type —
// e.g. a string compared against an integer key — reports false:
// bounds of mixed types cannot be ordered reliably, so the analysis
// refuses to reason about them.
func normalizeKeyLiteral(v catalog.Value, key catalog.Column) (catalog.Value, bool) {
	if v.IsNull() {
		return v, false
	}
	if key.Type == catalog.TypeInvalid {
		return v, true
	}
	v, err := catalog.Coerce(v, key)
	return v, err == nil
}

// insertFootprint collects the literal key values of an INSERT's rows.
func insertFootprint(s *sqlmini.Insert, schema *catalog.Schema, key catalog.Column) Footprint {
	pkIdx := -1
	if s.Columns != nil {
		for i, name := range s.Columns {
			if strings.EqualFold(name, key.Name) {
				pkIdx = i
			}
		}
	} else if schema != nil {
		if i, ok := schema.ColIndex(key.Name); ok {
			pkIdx = i
		}
	}
	if pkIdx < 0 {
		// The key column isn't assigned (or the schema is unknown):
		// can't tell which keys appear.
		return WholeTable()
	}
	var fp Footprint
	for _, row := range s.Rows {
		if pkIdx >= len(row) {
			return WholeTable()
		}
		lit, ok := row[pkIdx].(*sqlmini.Literal)
		if !ok {
			return WholeTable()
		}
		v, ok := normalizeKeyLiteral(lit.Val, key)
		if !ok {
			return WholeTable()
		}
		fp.Ranges = append(fp.Ranges, Point(v))
	}
	return fp
}

// predicateFootprint extracts key bounds from a WHERE clause. Only
// direct comparisons between the key column and literals constrain the
// footprint; AND intersects, OR unions, and everything else — including
// a nil predicate — is the whole table. Strict comparisons produce open
// bounds, so `pk < 10` and `pk > 10` are disjoint from the point 10 and
// from each other.
func predicateFootprint(e sqlmini.Expr, key catalog.Column) Footprint {
	x, ok := e.(*sqlmini.Binary)
	if !ok {
		return WholeTable()
	}
	switch x.Op {
	case sqlmini.OpAnd:
		return intersectFootprints(predicateFootprint(x.L, key), predicateFootprint(x.R, key))
	case sqlmini.OpOr:
		return unionFootprints(predicateFootprint(x.L, key), predicateFootprint(x.R, key))
	}
	r, ok := compareRange(x, key)
	if !ok {
		return WholeTable()
	}
	return Footprint{Ranges: []KeyRange{r}}
}

// ExactRange returns the interval of col's values that where selects
// exactly, with no residual predicate: where must be a conjunction,
// nested in any way, of comparisons between col and literals. A
// contradictory conjunction yields an empty interval, which is still a
// plan. Anything else — another column, OR, a NULL literal, a literal
// that does not coerce to col's type, a nil predicate — reports false,
// and the caller scans. Every range a DML statement plans this way lies
// inside its StatementFootprint, since both read the same comparisons
// through compareRange.
func ExactRange(where sqlmini.Expr, col catalog.Column) (KeyRange, bool) {
	x, ok := where.(*sqlmini.Binary)
	if !ok {
		return KeyRange{}, false
	}
	if x.Op != sqlmini.OpAnd {
		return compareRange(x, col)
	}
	l, ok := ExactRange(x.L, col)
	if !ok {
		return KeyRange{}, false
	}
	r, ok := ExactRange(x.R, col)
	if !ok {
		return KeyRange{}, false
	}
	return narrow(l, r), true
}

// compareRange reads one comparison between the key column and a
// literal, in either operand order, as the interval it selects, with
// the literal normalized to the key's type.
func compareRange(x *sqlmini.Binary, key catalog.Column) (KeyRange, bool) {
	var name string
	var lit catalog.Value
	op := x.Op
	switch l := x.L.(type) {
	case *sqlmini.ColRef:
		r, ok := x.R.(*sqlmini.Literal)
		if !ok {
			return KeyRange{}, false
		}
		name, lit = l.Name, r.Val
	case *sqlmini.Literal:
		c, ok := x.R.(*sqlmini.ColRef)
		if !ok {
			return KeyRange{}, false
		}
		// lit OP col reads as col OP' lit with the comparison mirrored.
		name, lit = c.Name, l.Val
		switch op {
		case sqlmini.OpLt:
			op = sqlmini.OpGt
		case sqlmini.OpLe:
			op = sqlmini.OpGe
		case sqlmini.OpGt:
			op = sqlmini.OpLt
		case sqlmini.OpGe:
			op = sqlmini.OpLe
		}
	default:
		return KeyRange{}, false
	}
	if !strings.EqualFold(name, key.Name) {
		return KeyRange{}, false
	}
	v, ok := normalizeKeyLiteral(lit, key)
	if !ok {
		return KeyRange{}, false
	}
	switch op {
	case sqlmini.OpEq:
		return Point(v), true
	case sqlmini.OpLt:
		return KeyRange{Hi: v, HasHi: true, HiOpen: true}, true
	case sqlmini.OpLe:
		return KeyRange{Hi: v, HasHi: true}, true
	case sqlmini.OpGt:
		return KeyRange{Lo: v, HasLo: true, LoOpen: true}, true
	case sqlmini.OpGe:
		return KeyRange{Lo: v, HasLo: true}, true
	default:
		return KeyRange{}, false
	}
}

// String formats a footprint compactly for logs and errors.
func (f Footprint) String() string {
	if f.Whole {
		return "whole-table"
	}
	parts := make([]string, len(f.Ranges))
	for i, r := range f.Ranges {
		parts[i] = r.String()
	}
	return fmt.Sprintf("{%s}", strings.Join(parts, " ∪ "))
}
