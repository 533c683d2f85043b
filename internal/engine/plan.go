package engine

import (
	"strings"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/sqlmini"
	"opdelta/internal/storage"
)

// keyRange is an index-range plan over the primary key: a closed
// interval with optionally open (exclusive) endpoints. Nil bounds are
// unbounded ends.
type keyRange struct {
	lo, hi   *catalog.Value
	loX, hiX bool // exclusive endpoints
}

// pkRangePlan recognizes WHERE clauses that an ordered PK index can
// answer exactly, with no residual predicate:
//
//	pk = lit
//	pk < lit | pk <= lit | pk > lit | pk >= lit   (either operand order)
//	<cmp> AND <cmp>                               (both over the PK)
//
// BETWEEN desugars to the AND form in the parser, so the paper's range
// statements plan here. Anything else falls back to a full scan.
func pkRangePlan(t *Table, where sqlmini.Expr) (*keyRange, bool) {
	if t.PKCol < 0 {
		return nil, false
	}
	return colRangePlan(t.Schema.Column(t.PKCol), where)
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

// secondaryRangePlan recognizes predicates an existing secondary index
// answers exactly, returning the index and range.
func secondaryRangePlan(t *Table, where sqlmini.Expr) (*secIndex, *keyRange, bool) {
	t.idxMu.RLock()
	secs := append([]*secIndex(nil), t.sec...)
	t.idxMu.RUnlock()
	for _, si := range secs {
		if kr, ok := colRangePlan(t.Schema.Column(si.col), where); ok {
			return si, kr, true
		}
	}
	return nil, nil, false
}

// pkCmp recognizes one comparison between the PK column and a literal
// of a compatible type, returning it as a range.
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
		return nil, false // NULL comparisons never match; let eval decide
	}
	if v.Type() != pkCol.Type {
		// Permit int literals against float PKs; anything else would
		// make index comparisons panic, so scan instead.
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

// flipCmp mirrors a comparison when operands are swapped (lit OP pk).
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

// keysetRange converts an index-range plan to the lock manager's range
// representation.
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

// rangeRIDs collects the RIDs inside the range in key order. Exclusive
// endpoints are filtered here since the underlying tree is inclusive.
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
