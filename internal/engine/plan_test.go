package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/sqlmini"
	"opdelta/internal/storage"
)

// The planner the engine used before access paths moved to
// keyset.ExactRange, kept as the reference of TestRangePlansMatchReference:
// one comparison, or one AND of two, between a column and a literal.

// keyRange is an index-range plan: a closed interval with optionally
// open (exclusive) endpoints. Nil bounds are unbounded ends.
type keyRange struct {
	lo, hi   *catalog.Value
	loX, hiX bool // exclusive endpoints
}

// colRangePlan recognizes WHERE clauses an ordered index over col can
// answer exactly.
func colRangePlan(col catalog.Column, where sqlmini.Expr) (*keyRange, bool) {
	if where == nil {
		return nil, false
	}
	b, ok := where.(*sqlmini.Binary)
	if !ok {
		return nil, false
	}
	if b.Op == sqlmini.OpAnd {
		l, okL := pkCmp(col, b.L)
		r, okR := pkCmp(col, b.R)
		if !okL || !okR {
			return nil, false
		}
		merged := mergeRanges(l, r)
		return merged, merged != nil
	}
	kr, ok := pkCmp(col, where)
	return kr, ok
}

// pkCmp recognizes one comparison between the column and a literal of
// a compatible type, returning it as a range.
func pkCmp(pkCol catalog.Column, e sqlmini.Expr) (*keyRange, bool) {
	b, ok := e.(*sqlmini.Binary)
	if !ok {
		return nil, false
	}
	var col *sqlmini.ColRef
	var lit *sqlmini.Literal
	op := b.Op
	if c, ok := b.L.(*sqlmini.ColRef); ok {
		if l, ok2 := b.R.(*sqlmini.Literal); ok2 {
			col, lit = c, l
		}
	}
	if col == nil {
		if c, ok := b.R.(*sqlmini.ColRef); ok {
			if l, ok2 := b.L.(*sqlmini.Literal); ok2 {
				col, lit = c, l
				op = flipCmp(op)
			}
		}
	}
	if col == nil || !strings.EqualFold(col.Name, pkCol.Name) {
		return nil, false
	}
	v := lit.Val
	if v.IsNull() {
		return nil, false
	}
	if v.Type() != pkCol.Type {
		if !(v.Type() == catalog.TypeInt64 && pkCol.Type == catalog.TypeFloat64) {
			return nil, false
		}
		v = catalog.NewFloat(float64(v.Int()))
	}
	switch op {
	case sqlmini.OpEq:
		return &keyRange{lo: &v, hi: &v}, true
	case sqlmini.OpGe:
		return &keyRange{lo: &v}, true
	case sqlmini.OpGt:
		return &keyRange{lo: &v, loX: true}, true
	case sqlmini.OpLe:
		return &keyRange{hi: &v}, true
	case sqlmini.OpLt:
		return &keyRange{hi: &v, hiX: true}, true
	default:
		return nil, false
	}
}

// flipCmp mirrors a comparison when operands are swapped (lit OP col).
func flipCmp(op sqlmini.BinOp) sqlmini.BinOp {
	switch op {
	case sqlmini.OpLt:
		return sqlmini.OpGt
	case sqlmini.OpLe:
		return sqlmini.OpGe
	case sqlmini.OpGt:
		return sqlmini.OpLt
	case sqlmini.OpGe:
		return sqlmini.OpLe
	default:
		return op
	}
}

// mergeRanges intersects two ranges over the same key.
func mergeRanges(a, b *keyRange) *keyRange {
	out := &keyRange{lo: a.lo, loX: a.loX, hi: a.hi, hiX: a.hiX}
	if b.lo != nil {
		if out.lo == nil {
			out.lo, out.loX = b.lo, b.loX
		} else if c := mustCompare(b.lo, out.lo); c > 0 || (c == 0 && b.loX) {
			out.lo, out.loX = b.lo, b.loX
		}
	}
	if b.hi != nil {
		if out.hi == nil {
			out.hi, out.hiX = b.hi, b.hiX
		} else if c := mustCompare(b.hi, out.hi); c < 0 || (c == 0 && b.hiX) {
			out.hi, out.hiX = b.hi, b.hiX
		}
	}
	return out
}

// keysetRange converts a reference plan to keyset's representation,
// for walking a secondary index.
func (kr *keyRange) keysetRange() keyset.KeyRange {
	var out keyset.KeyRange
	if kr.lo != nil {
		out.Lo, out.HasLo, out.LoOpen = *kr.lo, true, kr.loX
	}
	if kr.hi != nil {
		out.Hi, out.HasHi, out.HiOpen = *kr.hi, true, kr.hiX
	}
	return out
}

// rangeRIDs collects the RIDs inside the range in key order, filtering
// exclusive endpoints since the underlying tree is inclusive.
func (kr *keyRange) rangeRIDs(t *Table) []storage.RID {
	var out []storage.RID
	t.RangePK(kr.lo, kr.hi, func(k catalog.Value, rid storage.RID) bool {
		if kr.loX && kr.lo != nil && mustCompare(&k, kr.lo) == 0 {
			return true
		}
		if kr.hiX && kr.hi != nil && mustCompare(&k, kr.hi) == 0 {
			return true
		}
		out = append(out, rid)
		return true
	})
	return out
}

// planTable is one table of the planner property test: a key of one
// type and a secondary index on a BIGINT, a DOUBLE and a VARCHAR column.
type planTable struct {
	name string
	key  catalog.Type
}

var planTables = []planTable{
	{"p_int", catalog.TypeInt64},
	{"p_dbl", catalog.TypeFloat64},
	{"p_str", catalog.TypeString},
}

var planColTypes = map[string]catalog.Type{"a": catalog.TypeInt64, "b": catalog.TypeFloat64, "c": catalog.TypeString}

// planLiteral draws a literal for a column of type typ: usually of that
// type (drawn from around the stored values, so bounds fall on,
// between and outside them), sometimes of another type or NULL.
func planLiteral(r *rand.Rand, typ catalog.Type) catalog.Value {
	switch r.Intn(10) {
	case 0:
		return catalog.NewNull(catalog.TypeInt64)
	case 1, 2:
		typ = []catalog.Type{catalog.TypeInt64, catalog.TypeFloat64, catalog.TypeString}[r.Intn(3)]
	}
	switch typ {
	case catalog.TypeInt64:
		return catalog.NewInt(int64(r.Intn(50) - 5))
	case catalog.TypeFloat64:
		return catalog.NewFloat(float64(r.Intn(44)-12) / 2)
	default:
		return catalog.NewString([]string{"", "k", "z", "a", "ab", "b"}[r.Intn(6)] + fmt.Sprint(r.Intn(45)))
	}
}

// planValue is a stored value for a column of type typ at row i.
func planValue(r *rand.Rand, typ catalog.Type, i int, key bool) catalog.Value {
	if !key && r.Intn(8) == 0 {
		return catalog.NewNull(typ)
	}
	n := i
	if !key {
		n = r.Intn(12) // secondary columns repeat values
	}
	switch typ {
	case catalog.TypeInt64:
		return catalog.NewInt(int64(n))
	case catalog.TypeFloat64:
		if !key && r.Intn(12) == 0 {
			return catalog.NewFloat(math.Copysign(0, -1))
		}
		return catalog.NewFloat(float64(n)/2 - 5)
	default:
		return catalog.NewString(fmt.Sprintf("k%d", n))
	}
}

func planCmp(r *rand.Rand, col string, typ catalog.Type, ops []sqlmini.BinOp) sqlmini.Expr {
	c := &sqlmini.ColRef{Name: col}
	l := &sqlmini.Literal{Val: planLiteral(r, typ)}
	op := ops[r.Intn(len(ops))]
	if r.Intn(2) == 0 {
		return &sqlmini.Binary{Op: flipCmp(op), L: l, R: c}
	}
	return &sqlmini.Binary{Op: op, L: c, R: l}
}

var (
	planBoundOps = []sqlmini.BinOp{sqlmini.OpEq, sqlmini.OpLt, sqlmini.OpLe, sqlmini.OpGt, sqlmini.OpGe}
	planAllOps   = append([]sqlmini.BinOp{sqlmini.OpNe}, planBoundOps...)
)

// planWhere draws a WHERE clause. Half are conjunctions over one
// column — nested any way, often with contradictory bounds — which the
// planners may answer; the rest mix columns, OR and <>.
func planWhere(r *rand.Rand, key catalog.Type) sqlmini.Expr {
	cols := []string{"k", "a", "b", "c"}
	typeOf := func(col string) catalog.Type {
		if col == "k" {
			return key
		}
		return planColTypes[col]
	}
	if r.Intn(2) == 0 {
		col := cols[r.Intn(len(cols))]
		if r.Intn(2) == 0 {
			col = "k"
		}
		var conj func(depth int) sqlmini.Expr
		conj = func(depth int) sqlmini.Expr {
			if depth == 0 || r.Intn(3) == 0 {
				return planCmp(r, col, typeOf(col), planBoundOps)
			}
			return &sqlmini.Binary{Op: sqlmini.OpAnd, L: conj(depth - 1), R: conj(depth - 1)}
		}
		return conj(3)
	}
	var mixed func(depth int) sqlmini.Expr
	mixed = func(depth int) sqlmini.Expr {
		if depth == 0 || r.Intn(3) == 0 {
			col := cols[r.Intn(len(cols))]
			return planCmp(r, col, typeOf(col), planAllOps)
		}
		op := sqlmini.OpAnd
		if r.Intn(3) == 0 {
			op = sqlmini.OpOr
		}
		return &sqlmini.Binary{Op: op, L: mixed(depth - 1), R: mixed(depth - 1)}
	}
	return mixed(3)
}

// emptyRange reports an interval that holds no value: the lower bound
// above the upper, or equal bounds with either end open.
func emptyRange(r keyset.KeyRange) bool {
	if !r.HasLo || !r.HasHi {
		return false
	}
	c := mustCompare(&r.Lo, &r.Hi)
	return c > 0 || (c == 0 && (r.LoOpen || r.HiOpen))
}

func sortedRIDs(rids []storage.RID) []storage.RID {
	out := append([]storage.RID(nil), rids...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Page != out[j].Page {
			return out[i].Page < out[j].Page
		}
		return out[i].Slot < out[j].Slot
	})
	return out
}

// TestRangePlansMatchReference is the property test of the access-path
// planner. Random WHERE clauses — BIGINT, DOUBLE and VARCHAR keys and
// secondary columns; int, float, string and NULL literals; flipped
// operands; nested AND and OR; contradictory bounds — are planned by
// keyset.ExactRange and by the planner it replaced. Wherever the
// reference plans, the new plan must visit the same RIDs in the same
// order; wherever the new plan plans, it must visit exactly the rows a
// scan with the predicate matches, and every DML statement's PK plan
// must lie inside the statement's lock footprint. SELECT, through the
// locked and the snapshot path, must return what the scan matches.
func TestRangePlansMatchReference(t *testing.T) {
	db := openTestDB(t, Options{})
	r := rand.New(rand.NewSource(1))
	var refPlans, onlyNew, emptyPlans, wheres int
	for _, pt := range planTables {
		schema := catalog.NewSchema(
			catalog.Column{Name: "k", Type: pt.key, NotNull: true},
			catalog.Column{Name: "a", Type: catalog.TypeInt64},
			catalog.Column{Name: "b", Type: catalog.TypeFloat64},
			catalog.Column{Name: "c", Type: catalog.TypeString},
		)
		tbl, err := db.CreateTable(TableDef{Name: pt.name, Schema: schema, PrimaryKey: "k"})
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"a", "b", "c"} {
			if err := db.CreateSecondaryIndex(pt.name, col); err != nil {
				t.Fatal(err)
			}
		}
		ins := &sqlmini.Insert{Table: pt.name}
		for i := 0; i < 40; i++ {
			ins.Rows = append(ins.Rows, []sqlmini.Expr{
				&sqlmini.Literal{Val: planValue(r, pt.key, i, true)},
				&sqlmini.Literal{Val: planValue(r, catalog.TypeInt64, i, false)},
				&sqlmini.Literal{Val: planValue(r, catalog.TypeFloat64, i, false)},
				&sqlmini.Literal{Val: planValue(r, catalog.TypeString, i, false)},
			})
		}
		if _, err := db.ExecStmt(nil, ins); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 600; n++ {
			where := planWhere(r, pt.key)
			wheres++
			// The scan: every row, the predicate evaluated.
			var scan []storage.RID
			scanKeys := map[string]bool{}
			scanErr := tbl.heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
				tup, err := catalog.DecodeTuple(schema, rec)
				if err != nil {
					return false, err
				}
				ok, err := sqlmini.EvalPredicate(where, schema, tup)
				if ok {
					scan = append(scan, rid)
					scanKeys[tup[0].SQLLiteral()] = true
				}
				return err == nil, err
			})
			scan = sortedRIDs(scan)
			check := func(what string, rids []storage.RID) {
				t.Helper()
				if scanErr != nil {
					t.Fatalf("%s: %s plans %s, which the scan cannot evaluate: %v", pt.name, what, where, scanErr)
				}
				if got := sortedRIDs(rids); !slices.Equal(got, scan) {
					t.Fatalf("%s: %s plan of %s visits %v, the scan matches %v", pt.name, what, where, got, scan)
				}
			}

			// Primary key.
			keyCol := schema.Column(0)
			newR, newOK := pkRangePlan(tbl, where)
			if ref, ok := colRangePlan(keyCol, where); ok {
				refPlans++
				if !newOK {
					t.Fatalf("%s: the reference plans %s on the key, the new planner does not", pt.name, where)
				}
				if got, want := tbl.rangeRIDs(&newR, 0), ref.rangeRIDs(tbl); !slices.Equal(got, want) {
					t.Fatalf("%s: key plan of %s visits %v, the reference %v", pt.name, where, got, want)
				}
			} else if newOK {
				onlyNew++
			}
			if newOK {
				if emptyRange(newR) {
					emptyPlans++
				}
				check("key", tbl.rangeRIDs(&newR, 0))
				for _, stmt := range []sqlmini.Statement{
					&sqlmini.Delete{Table: pt.name, Where: where},
					&sqlmini.Update{Table: pt.name, Where: where,
						Assigns: []sqlmini.Assign{{Col: "a", Value: &sqlmini.Literal{Val: catalog.NewInt(1)}}}},
					&sqlmini.Update{Table: pt.name, Where: where,
						Assigns: []sqlmini.Assign{{Col: "k", Value: &sqlmini.Literal{Val: planValue(r, pt.key, 99, true)}}}},
				} {
					fp := keyset.StatementFootprint(stmt, schema, "k")
					inside := fp.Whole || emptyRange(newR)
					for _, fr := range fp.Ranges {
						inside = inside || fr.Contains(newR)
					}
					if !inside {
						t.Fatalf("%s: %s plans %s, outside its footprint %s", pt.name, stmt, newR, fp)
					}
				}
			}

			// Secondary indexes, each on its own.
			for _, si := range tbl.sec {
				col := schema.Column(si.col)
				newR, newOK := keyset.ExactRange(where, col)
				if ref, ok := colRangePlan(col, where); ok {
					refPlans++
					if !newOK {
						t.Fatalf("%s: the reference plans %s on %s, the new planner does not", pt.name, where, col.Name)
					}
					got, err := tbl.rangeSecondary(si, newR, 0)
					if err != nil {
						t.Fatal(err)
					}
					want, err := tbl.rangeSecondary(si, ref.keysetRange(), 0)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: %s plan of %s visits %v, the reference %v", pt.name, col.Name, where, got, want)
					}
				} else if newOK {
					onlyNew++
				}
				if newOK {
					rids, err := tbl.rangeSecondary(si, newR, 0)
					if err != nil {
						t.Fatal(err)
					}
					check(col.Name, rids)
				}
			}

			// SELECT end to end, locked and from a snapshot.
			if scanErr != nil {
				continue
			}
			for _, snap := range []bool{false, true} {
				var tx *Tx
				if snap {
					tx = db.BeginSnapshot()
				}
				got := map[string]bool{}
				_, err := db.IterateSelect(tx, &sqlmini.Select{Table: pt.name, Where: where}, func(tup catalog.Tuple) error {
					got[tup[0].SQLLiteral()] = true
					return nil
				})
				if tx != nil {
					tx.Commit()
				}
				if err != nil {
					t.Fatalf("%s: SELECT WHERE %s (snapshot %v): %v", pt.name, where, snap, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(scanKeys) {
					t.Fatalf("%s: SELECT WHERE %s (snapshot %v) returns %v, the scan matches %v", pt.name, where, snap, got, scanKeys)
				}
			}
		}
	}
	t.Logf("%d predicates: %d reference plans, %d planned only by the new planner, %d empty plans", wheres, refPlans, onlyNew, emptyPlans)
	if refPlans == 0 || onlyNew == 0 || emptyPlans == 0 {
		t.Fatal("the generator no longer reaches every planner case")
	}
}
