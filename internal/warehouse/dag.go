package warehouse

import (
	"slices"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
)

// footEntry is one range of one group's footprint on one table.
type footEntry struct {
	r keyset.KeyRange
	g int
}

// tableFeet indexes the footprints a batch's groups have on one table.
type tableFeet struct {
	groups  []int       // every group with a footprint here, in order
	whole   []int       // those whose footprint is the whole table
	entries []footEntry // the ranges of the others
	// typ is the one type every bound in entries has; mixed is set when
	// there is no such type (or a bound is NULL), and keyset.Intersects'
	// conservative answers then have no order to sweep along.
	typ   catalog.Type
	mixed bool
}

func (tf *tableFeet) noteBound(v catalog.Value) {
	switch {
	case v.IsNull():
		tf.mixed = true
	case tf.typ == catalog.TypeInvalid:
		tf.typ = v.Type()
	case tf.typ != v.Type():
		tf.mixed = true
	}
}

// dependencyDAG orders a batch's groups (given in source commit order):
// group j waits for every earlier group it conflicts with. indeg[j]
// counts those; rdeps[i] lists, ascending, the later groups waiting on
// i. Two groups conflict when either is universal or their footprints
// overlap on a table both touch. The edges are found without comparing
// every pair: per table the ranges are swept in lower-bound order
// against the ones still open, and whole-table and universal groups are
// paired from lists, so the cost is O(n log n + edges).
func dependencyDAG(groups []*txnGroup) (indeg []int, rdeps [][]int) {
	n := len(groups)
	var edges []uint64 // lower<<32 | higher; may hold duplicates
	edge := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if a != b {
			edges = append(edges, uint64(a)<<32|uint64(b))
		}
	}

	tables := make(map[string]*tableFeet)
	for g, grp := range groups {
		if grp.universal {
			for o := 0; o < n; o++ {
				edge(g, o)
			}
			continue
		}
		for t, fp := range grp.foot {
			tf := tables[t]
			if tf == nil {
				tf = &tableFeet{}
				tables[t] = tf
			}
			tf.groups = append(tf.groups, g)
			if fp.Whole {
				tf.whole = append(tf.whole, g)
				continue
			}
			for _, r := range fp.Ranges {
				tf.entries = append(tf.entries, footEntry{r, g})
				if r.HasLo {
					tf.noteBound(r.Lo)
				}
				if r.HasHi {
					tf.noteBound(r.Hi)
				}
			}
		}
	}

	for t, tf := range tables {
		for _, w := range tf.whole {
			for _, o := range tf.groups {
				edge(w, o)
			}
		}
		if tf.mixed {
			for x, a := range tf.groups {
				for _, b := range tf.groups[x+1:] {
					if groups[a].foot[t].Overlaps(groups[b].foot[t]) {
						edge(a, b)
					}
				}
			}
			continue
		}
		// Sweep. An open range whose upper bound lies below the current
		// lower bound lies below every later one too, so it is dropped;
		// the ranges that remain are the candidates, and nearly all of
		// them intersect.
		slices.SortFunc(tf.entries, func(a, b footEntry) int { return keyset.CompareLo(a.r, b.r) })
		var open []footEntry
		for _, e := range tf.entries {
			keep := open[:0]
			for _, a := range open {
				if e.r.HasLo && a.r.HasHi {
					if c := keyset.TotalCompare(a.r.Hi, e.r.Lo); c < 0 || (c == 0 && (a.r.HiOpen || e.r.LoOpen)) {
						continue
					}
				}
				keep = append(keep, a)
				if a.r.Intersects(e.r) {
					edge(a.g, e.g)
				}
			}
			open = append(keep, e)
		}
	}

	slices.Sort(edges)
	edges = slices.Compact(edges)
	indeg = make([]int, n)
	rdeps = make([][]int, n)
	for _, e := range edges {
		i, j := int(e>>32), int(uint32(e))
		indeg[j]++
		rdeps[i] = append(rdeps[i], j)
	}
	return indeg, rdeps
}
