package engine

import (
	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/sqlmini"
	"opdelta/internal/storage"
)

// pkRangePlan recognizes WHERE clauses that the ordered PK index
// answers exactly, with no residual predicate: any conjunction of
// comparisons between the primary key and literals, in either operand
// order (keyset.ExactRange). BETWEEN desugars to the AND form in the
// parser, so the paper's range statements plan here. Anything else
// falls back to a full scan.
func pkRangePlan(t *Table, where sqlmini.Expr) (keyset.KeyRange, bool) {
	if t.PKCol < 0 {
		return keyset.KeyRange{}, false
	}
	return keyset.ExactRange(where, t.Schema.Column(t.PKCol))
}

// secondaryRangePlan recognizes predicates an existing secondary index
// answers exactly, returning the index and range.
func secondaryRangePlan(t *Table, where sqlmini.Expr) (*secIndex, keyset.KeyRange, bool) {
	t.idxMu.RLock()
	secs := append([]*secIndex(nil), t.sec...)
	t.idxMu.RUnlock()
	for _, si := range secs {
		if r, ok := keyset.ExactRange(where, t.Schema.Column(si.col)); ok {
			return si, r, true
		}
	}
	return nil, keyset.KeyRange{}, false
}

// walkPK visits the PK index entries inside r in key order until fn
// returns false. The tree walk is inclusive at both ends, so open
// endpoints are skipped here, comparing in place.
func (t *Table) walkPK(r *keyset.KeyRange, fn func(catalog.Value, storage.RID) bool) {
	var lo, hi *catalog.Value
	if r.HasLo {
		lo = &r.Lo
	}
	if r.HasHi {
		hi = &r.Hi
	}
	t.RangePK(lo, hi, func(k catalog.Value, rid storage.RID) bool {
		if (r.LoOpen && lo != nil && mustCompare(&k, lo) == 0) || (r.HiOpen && hi != nil && mustCompare(&k, hi) == 0) {
			return true
		}
		return fn(k, rid)
	})
}

// rangeRIDs collects the RIDs of the PK entries inside r in key order,
// the first limit of them when limit > 0.
func (t *Table) rangeRIDs(r *keyset.KeyRange, limit int) []storage.RID {
	var out []storage.RID
	t.walkPK(r, func(_ catalog.Value, rid storage.RID) bool {
		out = append(out, rid)
		return len(out) != limit
	})
	return out
}
