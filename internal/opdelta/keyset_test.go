package opdelta

import (
	"testing"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/sqlmini"
)

func mustParse(t *testing.T, src string) sqlmini.Statement {
	t.Helper()
	stmt, err := sqlmini.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt
}

func partsSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "part_id", Type: catalog.TypeInt64},
		catalog.Column{Name: "qty", Type: catalog.TypeInt64},
		catalog.Column{Name: "status", Type: catalog.TypeString},
	)
}

func fp(t *testing.T, src string) keyset.Footprint {
	t.Helper()
	return StatementFootprint(mustParse(t, src), partsSchema(), "part_id")
}

func TestFootprintDisjointRanges(t *testing.T) {
	a := fp(t, "UPDATE parts SET status = 'x' WHERE part_id BETWEEN 0 AND 99")
	b := fp(t, "UPDATE parts SET status = 'y' WHERE part_id BETWEEN 100 AND 199")
	if a.Whole || b.Whole {
		t.Fatalf("range predicates should not degrade to whole-table: %+v %+v", a, b)
	}
	if a.Overlaps(b) {
		t.Fatalf("disjoint BETWEEN ranges reported overlapping")
	}
	c := fp(t, "UPDATE parts SET status = 'z' WHERE part_id BETWEEN 50 AND 150")
	if !a.Overlaps(c) || !b.Overlaps(c) {
		t.Fatalf("straddling range should overlap both neighbours")
	}
}

func TestFootprintPointsAndInserts(t *testing.T) {
	a := fp(t, "DELETE FROM parts WHERE part_id = 7")
	b := fp(t, "INSERT INTO parts VALUES (7, 10, 'new')")
	cCols := fp(t, "INSERT INTO parts (part_id, qty) VALUES (8, 1)")
	if !a.Overlaps(b) {
		t.Fatalf("delete of key 7 must conflict with insert of key 7")
	}
	if a.Overlaps(cCols) {
		t.Fatalf("key 7 should not conflict with key 8")
	}
}

func TestFootprintConservativeFallbacks(t *testing.T) {
	cases := []string{
		"UPDATE parts SET status = 'x' WHERE qty > 5",              // non-key predicate
		"DELETE FROM parts",                                        // no predicate
		"UPDATE parts SET part_id = part_id + 1 WHERE part_id = 3", // computed key assignment
	}
	for _, src := range cases {
		if got := fp(t, src); !got.Whole {
			t.Errorf("%q: want whole-table footprint, got %+v", src, got)
		}
	}
	// An unknown key column defeats analysis entirely.
	if got := StatementFootprint(mustParse(t, "DELETE FROM parts WHERE part_id = 1"), partsSchema(), ""); !got.Whole {
		t.Errorf("empty pk: want whole-table, got %+v", got)
	}
}

func TestFootprintAndOrComposition(t *testing.T) {
	// AND with a non-key term keeps the key bound.
	a := fp(t, "UPDATE parts SET status = 'x' WHERE part_id >= 10 AND part_id <= 20 AND qty > 0")
	if a.Whole {
		t.Fatalf("AND with non-key term lost the key bound")
	}
	b := fp(t, "DELETE FROM parts WHERE part_id = 5 OR part_id = 15")
	if b.Whole {
		t.Fatalf("OR of key points degraded to whole-table")
	}
	if !a.Overlaps(b) {
		t.Fatalf("[10,20] must overlap {5,15}")
	}
	c := fp(t, "DELETE FROM parts WHERE part_id = 5 OR qty = 1")
	if !c.Whole {
		t.Fatalf("OR with non-key disjunct must be whole-table")
	}
}

func TestFootprintKeyUpdateMoves(t *testing.T) {
	// Rewriting the key touches both the old and the new key value.
	a := StatementFootprint(mustParse(t, "UPDATE parts SET part_id = 99 WHERE part_id = 1"), partsSchema(), "part_id")
	hit := func(k int64) bool {
		return a.Overlaps(keyset.Footprint{Ranges: []keyset.KeyRange{keyset.Point(catalog.NewInt(k))}})
	}
	if a.Whole || !hit(1) || !hit(99) || hit(50) {
		t.Fatalf("key-move footprint wrong: %+v", a)
	}
}
