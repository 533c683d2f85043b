package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
	"opdelta/internal/workload"
)

// The oracle recomputes everything the warehouse holds from first
// principles and compares: the replica against the source, every view
// against its definition evaluated over the replica, and the applied
// ledger against the op log.

// digest fingerprints a multiset of tuples, order-independently: the
// approach of internal/fault/simnet's tableDigest without materializing
// and sorting 200k rows.
type digest struct {
	n        int
	sum, xor uint64
	buf      []byte
}

func (d *digest) add(schema *catalog.Schema, tup catalog.Tuple) error {
	enc, err := catalog.EncodeTuple(d.buf[:0], schema, tup)
	if err != nil {
		return err
	}
	d.buf = enc
	h := fnv.New64a()
	h.Write(enc)
	v := h.Sum64()
	d.n++
	d.sum += v
	d.xor ^= v
	return nil
}

func (d *digest) equal(o *digest) bool { return d.n == o.n && d.sum == o.sum && d.xor == o.xor }

func (d *digest) String() string { return fmt.Sprintf("%d:%016x", d.n, d.sum^d.xor) }

// viewRow maps one parts row to the view's row, or nil when the view
// does not hold it. dim resolves the join partner.
func viewRow(def *opdelta.ViewDef, schema *catalog.Schema, row catalog.Tuple, dim func(catalog.Value) catalog.Tuple) (catalog.Tuple, error) {
	if def.Where != nil {
		ok, err := sqlmini.EvalPredicate(def.Where, schema, row)
		if err != nil || !ok {
			return nil, err
		}
	}
	var right catalog.Tuple
	if def.Join != nil {
		li, _ := schema.ColIndex(def.Join.LeftCol)
		if right = dim(row[li]); right == nil {
			return nil, nil
		}
	}
	out := make(catalog.Tuple, 0, len(def.Project))
	for _, name := range def.Project {
		if i, ok := schema.ColIndex(name); ok {
			out = append(out, row[i])
		} else if i, ok := dimSchema().ColIndex(name); ok && right != nil {
			out = append(out, right[i])
		} else {
			return nil, fmt.Errorf("view %s projects unknown column %q", def.Name, name)
		}
	}
	return out, nil
}

func staticDim(v catalog.Value) catalog.Tuple {
	if v.IsNull() || v.Int() < 0 || v.Int() >= dimRows {
		return nil
	}
	return dimRow(v.Int())
}

// expectedView evaluates a view definition over n generated rows.
func expectedView(def opdelta.ViewDef, n int, row func(int) catalog.Tuple) []catalog.Tuple {
	schema := workload.PartsSchema()
	out := make([]catalog.Tuple, 0, n)
	for i := 0; i < n; i++ {
		v, err := viewRow(&def, schema, row(i), staticDim)
		if err != nil {
			panic(err) // a definition in this package names a missing column
		}
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// aggAcc folds the aggregate view's definition: per status, the live
// row count, COUNT(*) and SUM(qty).
type aggAcc map[string][2]int64

func (a aggAcc) add(row catalog.Tuple) {
	acc := a[row[1].Str()]
	acc[0]++
	acc[1] += row[2].Int()
	a[row[1].Str()] = acc
}

// rows renders the accumulator in the aggregate view's layout:
// status, n_rows, count, sum_qty.
func (a aggAcc) rows() []catalog.Tuple {
	out := make([]catalog.Tuple, 0, len(a))
	for status, acc := range a {
		out = append(out, catalog.Tuple{
			catalog.NewString(status), catalog.NewInt(acc[0]), catalog.NewInt(acc[0]), catalog.NewInt(acc[1]),
		})
	}
	return out
}

func expectedAgg(n int, row func(int) catalog.Tuple) []catalog.Tuple {
	acc := aggAcc{}
	for i := 0; i < n; i++ {
		acc.add(row(i))
	}
	return acc.rows()
}

// verify returns one line per mismatch; an empty result means the
// warehouse is exactly what the source and the view definitions imply.
func (s *stack) verify() ([]string, error) {
	var bad []string
	schema := workload.PartsSchema()
	tsCol, _ := schema.ColIndex("last_modified")
	// The timestamp column is engine-maintained on each side (the replay
	// re-stamps it), so it is masked out of the byte comparison.
	mask := catalog.NewTime(time.Time{})

	var srcD digest
	if err := s.src.ScanTable(nil, "parts", func(row catalog.Tuple) error {
		row[tsCol] = mask
		return srcD.add(schema, row)
	}); err != nil {
		return nil, err
	}

	dim := map[int64]catalog.Tuple{}
	if s.spec.views == viewsRange {
		if err := s.whDB.ScanTable(nil, dimTable, func(row catalog.Tuple) error {
			dim[row[0].Int()] = row.Clone()
			return nil
		}); err != nil {
			return nil, err
		}
	}
	dimOf := func(v catalog.Value) catalog.Tuple {
		if v.IsNull() {
			return nil
		}
		return dim[v.Int()]
	}

	views := s.wh.Views()
	want := make([]digest, len(views))
	agg := aggAcc{}
	var whD digest
	if err := s.whDB.ScanTable(nil, "parts", func(row catalog.Tuple) error {
		for i, v := range views {
			vr, err := viewRow(&v.Def, schema, row, dimOf)
			if err != nil {
				return err
			}
			if vr != nil {
				if err := want[i].add(v.Schema, vr); err != nil {
					return err
				}
			}
		}
		agg.add(row)
		row[tsCol] = mask
		return whD.add(schema, row)
	}); err != nil {
		return nil, err
	}
	if !srcD.equal(&whD) {
		bad = append(bad, fmt.Sprintf("replica parts %s != source parts %s", &whD, &srcD))
	}

	for i, v := range views {
		var got digest
		if err := s.whDB.ScanTable(nil, v.Def.Name, func(row catalog.Tuple) error {
			return got.add(v.Schema, row)
		}); err != nil {
			return nil, err
		}
		if !got.equal(&want[i]) {
			bad = append(bad, fmt.Sprintf("view %s holds %s, recomputed from the replica %s", v.Def.Name, &got, &want[i]))
		}
	}

	for _, av := range s.wh.AggViewsOn("parts") {
		var got, exp digest
		if err := s.whDB.ScanTable(nil, av.Def.Name, func(row catalog.Tuple) error {
			return got.add(av.Schema, row)
		}); err != nil {
			return nil, err
		}
		for _, row := range agg.rows() {
			if err := exp.add(av.Schema, row); err != nil {
				return nil, err
			}
		}
		if !got.equal(&exp) {
			bad = append(bad, fmt.Sprintf("aggregate view %s holds %s, recomputed from the replica %s", av.Def.Name, &got, &exp))
		}
	}

	maxApplied, err := s.applied.MaxSeq()
	if err != nil {
		return nil, err
	}
	if maxApplied != s.oplog.Seq() {
		bad = append(bad, fmt.Sprintf("applied ledger ends at seq %d, op log at %d", maxApplied, s.oplog.Seq()))
	}
	return bad, nil
}
