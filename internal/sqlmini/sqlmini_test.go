package sqlmini

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"opdelta/internal/catalog"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, `CREATE TABLE parts (
		part_id BIGINT NOT NULL,
		status VARCHAR,
		qty INT,
		weight DOUBLE,
		last_modified TIMESTAMP
	) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`)
	ct, ok := s.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ct.Table != "parts" || len(ct.Cols) != 5 {
		t.Fatalf("parsed %+v", ct)
	}
	if !ct.Cols[0].NotNull || ct.Cols[0].Type != catalog.TypeInt64 {
		t.Errorf("col0 = %+v", ct.Cols[0])
	}
	if ct.Cols[4].Type != catalog.TypeTime {
		t.Errorf("col4 = %+v", ct.Cols[4])
	}
	if ct.PrimaryKey != "part_id" || ct.TimestampCol != "last_modified" {
		t.Errorf("pk=%q ts=%q", ct.PrimaryKey, ct.TimestampCol)
	}
}

func TestParseInsert(t *testing.T) {
	s := mustParse(t, `INSERT INTO parts (part_id, status) VALUES (1, 'new'), (2, 'old')`)
	ins := s.(*Insert)
	if ins.Table != "parts" || len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("%+v", ins)
	}
	lit := ins.Rows[1][1].(*Literal)
	if lit.Val.Str() != "old" {
		t.Fatalf("row[1][1] = %v", lit.Val)
	}
	// Without a column list.
	s2 := mustParse(t, `INSERT INTO t VALUES (-5, 2.5, NULL, TRUE, X'deadbeef')`)
	ins2 := s2.(*Insert)
	if ins2.Columns != nil || len(ins2.Rows[0]) != 5 {
		t.Fatalf("%+v", ins2)
	}
	if v := ins2.Rows[0][0].(*Literal).Val; v.Int() != -5 {
		t.Errorf("negative literal = %v", v)
	}
	if v := ins2.Rows[0][2].(*Literal).Val; !v.IsNull() {
		t.Errorf("NULL literal = %v", v)
	}
	if v := ins2.Rows[0][4].(*Literal).Val; fmt.Sprintf("%x", v.BytesVal()) != "deadbeef" {
		t.Errorf("hex literal = %v", v)
	}
}

func TestParseUpdateDeleteSelect(t *testing.T) {
	// The paper's motivating statement.
	s := mustParse(t, `UPDATE PARTS SET status = 'revised' WHERE last_modified_date > TIMESTAMP '11/15/99'`)
	up := s.(*Update)
	if up.Table != "PARTS" || len(up.Assigns) != 1 || up.Where == nil {
		t.Fatalf("%+v", up)
	}
	b := up.Where.(*Binary)
	if b.Op != OpGt {
		t.Fatalf("where op = %v", b.Op)
	}
	ts := b.R.(*Literal).Val.Time()
	if ts.Year() != 1999 || ts.Month() != time.November || ts.Day() != 15 {
		t.Fatalf("timestamp literal = %v", ts)
	}

	d := mustParse(t, `DELETE FROM parts WHERE part_id BETWEEN 10 AND 20`).(*Delete)
	if d.Where == nil {
		t.Fatal("missing where")
	}
	sel := mustParse(t, `SELECT part_id, status FROM parts WHERE status <> 'dead' AND qty >= 3`).(*Select)
	if len(sel.Columns) != 2 {
		t.Fatalf("%+v", sel)
	}
	star := mustParse(t, `SELECT * FROM parts`).(*Select)
	if star.Columns != nil || star.Where != nil {
		t.Fatalf("%+v", star)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DROP TABLE x",
		"SELECT FROM t",
		"INSERT INTO VALUES (1)",
		"UPDATE t SET",
		"DELETE t",
		"SELECT * FROM t WHERE",
		"INSERT INTO t VALUES (1",
		"SELECT * FROM t WHERE a = 'unterminated",
		"CREATE TABLE t (a WIDGET)",
		"SELECT * FROM t WHERE a ~ 1",
		"SELECT * FROM t extra",
		"INSERT INTO t VALUES (X'abc')", // odd hex
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStringRoundtrip(t *testing.T) {
	srcs := []string{
		`CREATE TABLE parts (part_id BIGINT NOT NULL, status VARCHAR) PRIMARY KEY (part_id)`,
		`INSERT INTO parts (part_id, status) VALUES (1, 'it''s'), (2, NULL)`,
		`UPDATE parts SET status = 'revised', qty = qty + 1 WHERE last_modified > TIMESTAMP '1999-11-15T00:00:00Z'`,
		`DELETE FROM parts WHERE (part_id >= 10) AND (part_id <= 20)`,
		`SELECT part_id, status FROM parts WHERE (status <> 'dead') OR (qty IS NOT NULL)`,
		`SELECT * FROM parts`,
	}
	for _, src := range srcs {
		s1 := mustParse(t, src)
		printed := s1.String()
		s2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", printed, err)
		}
		if s2.String() != printed {
			t.Errorf("not a fixpoint:\n 1st: %s\n 2nd: %s", printed, s2.String())
		}
	}
}

func evalSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.TypeInt64, NotNull: true},
		catalog.Column{Name: "status", Type: catalog.TypeString},
		catalog.Column{Name: "qty", Type: catalog.TypeInt64},
		catalog.Column{Name: "weight", Type: catalog.TypeFloat64},
	)
}

func row(id int64, status string, qty int64, weight float64) catalog.Tuple {
	return catalog.Tuple{catalog.NewInt(id), catalog.NewString(status), catalog.NewInt(qty), catalog.NewFloat(weight)}
}

func TestEvalPredicates(t *testing.T) {
	s := evalSchema()
	r := row(7, "new", 3, 1.5)
	cases := []struct {
		src  string
		want bool
	}{
		{"id = 7", true},
		{"id <> 7", false},
		{"id < 10 AND status = 'new'", true},
		{"id > 10 OR qty >= 3", true},
		{"id BETWEEN 5 AND 9", true},
		{"id BETWEEN 8 AND 9", false},
		{"weight > 1", true},
		{"weight > 2", false},
		{"qty + 1 = 4", true},
		{"qty * 2 = 6", true},
		{"qty - 5 = -2", true},
		{"id = 3 + 4", true},
		{"status IS NULL", false},
		{"status IS NOT NULL", true},
		{"(id = 1 OR id = 7) AND qty = 3", true},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", c.src, err)
		}
		got, err := EvalPredicate(e, s, r)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalNullSemantics(t *testing.T) {
	s := evalSchema()
	r := catalog.Tuple{catalog.NewInt(1), catalog.NewNull(catalog.TypeString), catalog.NewNull(catalog.TypeInt64), catalog.NewFloat(0)}
	// NULL comparisons are not true.
	for _, src := range []string{"status = 'x'", "status <> 'x'", "qty > 0", "qty = qty"} {
		e, _ := ParseExpr(src)
		got, err := EvalPredicate(e, s, r)
		if err != nil || got {
			t.Errorf("EvalPredicate(%q) = %v, %v; want false", src, got, err)
		}
	}
	// Kleene: FALSE AND NULL = FALSE; TRUE OR NULL = TRUE.
	e, _ := ParseExpr("id = 2 AND qty > 0")
	if got, _ := EvalPredicate(e, s, r); got {
		t.Error("FALSE AND NULL must be false")
	}
	e, _ = ParseExpr("id = 1 OR qty > 0")
	if got, _ := EvalPredicate(e, s, r); !got {
		t.Error("TRUE OR NULL must be true")
	}
	// NULL IS NULL.
	e, _ = ParseExpr("qty IS NULL")
	if got, _ := EvalPredicate(e, s, r); !got {
		t.Error("qty IS NULL must be true")
	}
	// Arithmetic with NULL propagates NULL -> predicate false.
	e, _ = ParseExpr("qty + 1 = 1")
	if got, _ := EvalPredicate(e, s, r); got {
		t.Error("NULL + 1 = 1 must not be true")
	}
}

func TestEvalErrors(t *testing.T) {
	s := evalSchema()
	r := row(1, "a", 1, 1)
	for _, src := range []string{"ghost = 1", "status + 1 = 2", "status > 5"} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", src, err)
		}
		if _, err := EvalPredicate(e, s, r); err == nil {
			t.Errorf("EvalPredicate(%q) should error", src)
		}
	}
}

func TestStringConcat(t *testing.T) {
	s := evalSchema()
	r := row(1, "ab", 1, 1)
	e, err := ParseExpr("status + '-suffix' = 'ab-suffix'")
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalPredicate(e, s, r)
	if err != nil || !got {
		t.Fatalf("concat predicate = %v, %v", got, err)
	}
}

func TestColumnsCollection(t *testing.T) {
	e, err := ParseExpr("(a = 1 OR b > 2) AND c IS NULL AND d + e = 3")
	if err != nil {
		t.Fatal(err)
	}
	got := Columns(e)
	for _, want := range []string{"a", "b", "c", "d", "e"} {
		if !got[want] {
			t.Errorf("Columns missing %q: %v", want, got)
		}
	}
	if len(got) != 5 {
		t.Errorf("Columns = %v", got)
	}
}

// randExpr builds a random predicate over the eval schema.
func randExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		// leaf comparison
		cols := []string{"id", "qty"}
		col := cols[r.Intn(len(cols))]
		ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return &Binary{
			Op: ops[r.Intn(len(ops))],
			L:  &ColRef{Name: col},
			R:  &Literal{Val: catalog.NewInt(r.Int63n(20))},
		}
	}
	if r.Intn(5) == 0 {
		return &IsNull{Expr: &ColRef{Name: "status"}, Negate: r.Intn(2) == 0}
	}
	op := OpAnd
	if r.Intn(2) == 0 {
		op = OpOr
	}
	return &Binary{Op: op, L: randExpr(r, depth-1), R: randExpr(r, depth-1)}
}

// TestQuickExprPrintParseEval: printing then reparsing an expression
// must evaluate identically on random rows.
func TestQuickExprPrintParseEval(t *testing.T) {
	s := evalSchema()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e1 := randExpr(r, 3)
		e2, err := ParseExpr(e1.String())
		if err != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			tup := row(r.Int63n(20), "s", r.Int63n(20), r.Float64())
			if r.Intn(4) == 0 {
				tup[1] = catalog.NewNull(catalog.TypeString)
			}
			v1, err1 := EvalPredicate(e1, s, tup)
			v2, err2 := EvalPredicate(e2, s, tup)
			if (err1 == nil) != (err2 == nil) || v1 != v2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertRoundtrip: INSERT statements with random literals
// round-trip through String/Parse.
func TestQuickInsertRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nrows := 1 + r.Intn(3)
		rows := make([][]Expr, nrows)
		for i := range rows {
			rows[i] = []Expr{
				&Literal{Val: catalog.NewInt(r.Int63() - r.Int63())},
				&Literal{Val: catalog.NewString(randLitString(r))},
				&Literal{Val: catalog.NewFloat(float64(r.Intn(1000)) / 8)},
			}
		}
		in := &Insert{Table: "t", Rows: rows}
		printed := in.String()
		back, err := Parse(printed)
		if err != nil {
			return false
		}
		return back.String() == printed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randLitString(r *rand.Rand) string {
	chars := "abcXYZ '0-_,()="
	var b strings.Builder
	n := r.Intn(20)
	for i := 0; i < n; i++ {
		b.WriteByte(chars[r.Intn(len(chars))])
	}
	return b.String()
}

func TestParseExprTrailing(t *testing.T) {
	if _, err := ParseExpr("a = 1 b"); err == nil {
		t.Fatal("trailing tokens must fail")
	}
}

func TestTimeLiteralFormats(t *testing.T) {
	for _, src := range []string{
		`TIMESTAMP '2024-05-06T07:08:09Z'`,
		`TIMESTAMP '2024-05-06 07:08:09'`,
		`TIMESTAMP '2024-05-06'`,
		`TIMESTAMP '12/5/99'`,
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
			continue
		}
		if _, ok := e.(*Literal); !ok {
			t.Errorf("ParseExpr(%q) = %T", src, e)
		}
	}
	if _, err := ParseExpr(`TIMESTAMP 'not a time'`); err == nil {
		t.Error("bad time literal must fail")
	}
}

// TestQuickSQLLiteralParserRoundtrip: every value's SQLLiteral rendering
// must parse back to an equal value — the property Op-Delta statement
// synthesis (DeltaSQL, capture re-emission) depends on.
func TestQuickSQLLiteralParserRoundtrip(t *testing.T) {
	gen := func(r *rand.Rand) catalog.Value {
		switch r.Intn(6) {
		case 0:
			return catalog.NewInt(r.Int63() - r.Int63())
		case 1:
			return catalog.NewFloat(float64(r.Int63n(1_000_000)) / 64)
		case 2:
			b := make([]byte, r.Intn(20))
			for i := range b {
				b[i] = byte(32 + r.Intn(95)) // printable, includes quotes
			}
			return catalog.NewString(string(b))
		case 3:
			raw := make([]byte, r.Intn(10))
			r.Read(raw)
			return catalog.NewBytes(raw)
		case 4:
			return catalog.NewTime(time.Unix(r.Int63n(4e9), r.Int63n(1e9)).UTC())
		default:
			return catalog.NewBool(r.Intn(2) == 0)
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := gen(r)
		e, err := ParseExpr(v.SQLLiteral())
		if err != nil {
			return false
		}
		lit, ok := e.(*Literal)
		if !ok {
			return false
		}
		return catalog.Equal(v, lit.Val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestParseAllocs counts what one parse of the benchmark's single-row
// statements allocates. The lexer's token slice comes from a pool and
// goes back when the parse returns; symbols are substrings of the
// source; keywords are looked up without upper-casing a copy; an
// INSERT's column and value lists are allocated once at their size.
// What is left is the AST itself: the statement, its lists, one node per
// literal, column reference and comparison (the BETWEEN is two
// comparisons under an AND), and one copy of each string literal's
// text. Regrowing the token slice per parse read 37 and 19.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, c := range []struct {
		src  string
		want float64
	}{
		{"INSERT INTO parts (part_id, status, qty, payload) VALUES (1234, 'retired', 234, 'mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm')", 10},
		{"UPDATE parts SET status = 'revised' WHERE part_id BETWEEN 1234 AND 1234", 10},
	} {
		mustParse(t, c.src)
		got := testing.AllocsPerRun(200, func() {
			if _, err := Parse(c.src); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.want {
			t.Errorf("Parse(%q) allocates %.0f times, want at most %.0f", c.src, got, c.want)
		}
	}
}

// TestPooledTokensShareNothing: parses that reuse one another's token
// slices, in turn and side by side, leave every earlier AST as it was,
// and a failed lex returns its slice too.
func TestPooledTokensShareNothing(t *testing.T) {
	srcs := []string{
		"INSERT INTO parts (part_id, status) VALUES (1, 'it''s'), (2, 'b')",
		"UPDATE parts SET status = 'x', qty = qty + 1 WHERE part_id BETWEEN 3 AND 9",
		"DELETE FROM parts WHERE part_id = 4 AND status IS NOT NULL",
		"SELECT part_id, status FROM parts WHERE qty >= 500 ORDER BY part_id DESC LIMIT 3",
	}
	var want []string
	var kept []Statement
	for _, src := range srcs {
		s := mustParse(t, src)
		kept = append(kept, s)
		want = append(want, s.String())
	}
	if _, err := Parse("SELECT 'unterminated FROM parts"); err == nil {
		t.Fatal("an unterminated literal parses")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src := srcs[(g+i)%len(srcs)]
				s, err := Parse(src)
				if err != nil || s.String() != want[(g+i)%len(srcs)] {
					t.Errorf("Parse(%q) = %v, %v", src, s, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i, s := range kept {
		if s.String() != want[i] {
			t.Errorf("statement %d reads %q after later parses, want %q", i, s.String(), want[i])
		}
	}
	if lit := kept[0].(*Insert).Rows[0][1].(*Literal).Val.Str(); lit != "it's" {
		t.Errorf("escaped literal = %q, want %q", lit, "it's")
	}
}
