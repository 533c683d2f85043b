package warehouse

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
)

// conflictsWith is the definition of an edge: either group is universal,
// or their footprints overlap on a table both touch.
func (g *txnGroup) conflictsWith(o *txnGroup) bool {
	if g.universal || o.universal {
		return true
	}
	for t, fg := range g.foot {
		if fo, ok := o.foot[t]; ok && fg.Overlaps(fo) {
			return true
		}
	}
	return false
}

// pairwiseDAG is the loop dependencyDAG replaced: every pair, in order.
func pairwiseDAG(groups []*txnGroup) ([]int, [][]int) {
	n := len(groups)
	indeg := make([]int, n)
	rdeps := make([][]int, n)
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if groups[i].conflictsWith(groups[j]) {
				indeg[j]++
				rdeps[i] = append(rdeps[i], j)
			}
		}
	}
	return indeg, rdeps
}

// randomRange draws points, closed/open/half-bounded ranges and the
// occasional inverted one over a small key space, so that collisions
// and touching bounds are common. mixed adds floats, strings and NULLs.
func randomRange(rng *rand.Rand, mixed bool) keyset.KeyRange {
	val := func() catalog.Value {
		k := int64(rng.Intn(40))
		if mixed {
			switch rng.Intn(8) {
			case 0:
				return catalog.NewFloat(float64(k) + 0.5)
			case 1:
				return catalog.NewString(fmt.Sprintf("k%02d", k))
			case 2:
				return catalog.NewNull(catalog.TypeInt64)
			}
		}
		return catalog.NewInt(k)
	}
	if rng.Intn(2) == 0 {
		return keyset.Point(val())
	}
	r := keyset.KeyRange{Lo: val(), Hi: val(), HasLo: rng.Intn(5) > 0, HasHi: rng.Intn(5) > 0,
		LoOpen: rng.Intn(3) == 0, HiOpen: rng.Intn(3) == 0}
	if c, err := catalog.Compare(r.Lo, r.Hi); err == nil && c > 0 && rng.Intn(4) > 0 {
		r.Lo, r.Hi = r.Hi, r.Lo // mostly well-formed
	}
	return r
}

func randomGroups(rng *rand.Rand, n int, mixed bool) []*txnGroup {
	tables := []string{"parts", "orders", "dim"}
	groups := make([]*txnGroup, n)
	for i := range groups {
		g := &txnGroup{foot: make(map[string]keyset.Footprint)}
		switch rng.Intn(40) {
		case 0:
			g.universal = true
		}
		for _, t := range tables[:1+rng.Intn(len(tables))] {
			if rng.Intn(3) == 0 {
				continue
			}
			var fp keyset.Footprint
			switch rng.Intn(25) {
			case 0:
				fp = keyset.WholeTable()
			case 1: // touches no key, but is present
			default:
				for k := 1 + rng.Intn(3); k > 0; k-- {
					fp.Ranges = append(fp.Ranges, randomRange(rng, mixed))
				}
			}
			g.foot[t] = fp
		}
		groups[i] = g
	}
	return groups
}

func TestDependencyDAGMatchesPairwise(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		groups := randomGroups(rng, 1+rng.Intn(80), seed%2 == 1)
		wantIn, wantR := pairwiseDAG(groups)
		gotIn, gotR := dependencyDAG(groups)
		if !reflect.DeepEqual(gotIn, wantIn) {
			t.Fatalf("seed %d: indeg %v, want %v", seed, gotIn, wantIn)
		}
		for i := range wantR {
			if len(gotR[i]) != len(wantR[i]) || (len(wantR[i]) > 0 && !reflect.DeepEqual(gotR[i], wantR[i])) {
				t.Fatalf("seed %d: rdeps[%d] %v, want %v", seed, i, gotR[i], wantR[i])
			}
		}
	}
}

var dagSink []int

// A batch of point statements on distinct keys is the applier's common
// case: no edges, and the cost must not grow with the square of the batch.
func BenchmarkDependencyDAG(b *testing.B) {
	groups := make([]*txnGroup, 256)
	for i := range groups {
		groups[i] = &txnGroup{foot: map[string]keyset.Footprint{
			"parts": {Ranges: []keyset.KeyRange{keyset.Point(catalog.NewInt(int64(i * 7919 % 12000)))}}}}
	}
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dagSink, _ = dependencyDAG(groups)
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dagSink, _ = pairwiseDAG(groups)
		}
	})
}
