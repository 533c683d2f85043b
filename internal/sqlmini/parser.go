package sqlmini

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"opdelta/internal/catalog"
)

// Parse parses one statement.
func Parse(src string) (Statement, error) {
	buf := getTokens()
	defer putTokens(buf)
	toks, err := lex(src, *buf)
	*buf = toks
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errorf("trailing input after statement")
	}
	return stmt, nil
}

// ParseExpr parses a standalone scalar expression (used by view
// definitions and tests).
func ParseExpr(src string) (Expr, error) {
	buf := getTokens()
	defer putTokens(buf)
	toks, err := lex(src, *buf)
	*buf = toks
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errorf("trailing input after expression")
	}
	return e, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return token{}, p.errorf("expected %s, found %q", want, t.text)
	}
	p.advance()
	return t, nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlmini: %s (near offset %d in %q)",
		fmt.Sprintf(format, args...), p.cur().pos, truncate(p.src, 60))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.accept(tokKeyword, "CREATE"):
		return p.parseCreateTable()
	case p.accept(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.accept(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.accept(tokKeyword, "DELETE"):
		return p.parseDelete()
	case p.accept(tokKeyword, "SELECT"):
		return p.parseSelect()
	default:
		return nil, p.errorf("expected a statement keyword, found %q", p.cur().text)
	}
}

func (p *parser) parseIdent() (string, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return "", err
	}
	return t.text, nil
}

func (p *parser) parseCreateTable() (Statement, error) {
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	stmt := &CreateTable{Table: name}
	for {
		colName, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		// Type names lex as idents except TIMESTAMP which is a keyword.
		var typeName string
		if p.at(tokKeyword, "TIMESTAMP") {
			typeName = "TIMESTAMP"
			p.advance()
		} else {
			typeName, err = p.parseIdent()
			if err != nil {
				return nil, err
			}
		}
		typ, err := catalog.TypeFromName(strings.ToUpper(typeName))
		if err != nil {
			return nil, p.errorf("%v", err)
		}
		col := ColumnDef{Name: colName, Type: typ}
		if p.accept(tokKeyword, "NOT") {
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return nil, err
			}
			col.NotNull = true
		}
		stmt.Cols = append(stmt.Cols, col)
		if p.accept(tokSymbol, ",") {
			continue
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		break
	}
	for {
		switch {
		case p.accept(tokKeyword, "PRIMARY"):
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			pk, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			stmt.PrimaryKey = pk
		case p.accept(tokKeyword, "TIMESTAMP"):
			if _, err := p.expect(tokKeyword, "COLUMN"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			tc, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			stmt.TimestampCol = tc
		default:
			return stmt, nil
		}
	}
}

func (p *parser) parseInsert() (Statement, error) {
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt := &Insert{Table: table}
	// Lists collect in stack scratch and are copied out once at their
	// size, not grown one append at a time.
	if p.accept(tokSymbol, "(") {
		var scratch [16]string
		cols := scratch[:0]
		for {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			cols = append(cols, col)
			if p.accept(tokSymbol, ",") {
				continue
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
		stmt.Columns = slices.Clone(cols)
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var scratch [16]Expr
		row := scratch[:0]
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
		stmt.Rows = append(stmt.Rows, slices.Clone(row))
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	stmt := &Update{Table: table}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Assigns = append(stmt.Assigns, Assign{Col: col, Value: val})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt := &Delete{Table: table}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

// aggFns maps upper-cased aggregate names used in select lists.
var aggFns = map[string]AggFn{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

func (p *parser) parseSelect() (Statement, error) {
	stmt := &Select{}
	if p.accept(tokSymbol, "*") {
		// all columns
	} else {
		for {
			item, err := p.parseSelectItem(stmt)
			if err != nil {
				return nil, err
			}
			if item != "" {
				stmt.Columns = append(stmt.Columns, item)
			}
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt.Table = table
	if p.accept(tokKeyword, "AS") {
		if _, err := p.expect(tokKeyword, "OF"); err != nil {
			return nil, err
		}
		t, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		lsn, err := strconv.ParseUint(t.text, 10, 64)
		if err != nil || lsn == 0 {
			return nil, p.errorf("bad AS OF LSN %q", t.text)
		}
		stmt.AsOf = lsn
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		stmt.GroupBy = col
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		stmt.OrderBy = col
		if p.accept(tokKeyword, "DESC") {
			stmt.Desc = true
		} else {
			p.accept(tokKeyword, "ASC")
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errorf("bad LIMIT %q", t.text)
		}
		stmt.Limit = n
	}
	if err := validateSelect(stmt); err != nil {
		return nil, p.errorf("%v", err)
	}
	return stmt, nil
}

// parseSelectItem parses either a column name or an aggregate call.
// Aggregates are recorded on stmt and "" is returned; plain columns are
// returned by name.
func (p *parser) parseSelectItem(stmt *Select) (string, error) {
	name, err := p.parseIdent()
	if err != nil {
		return "", err
	}
	fn, isAgg := aggFns[strings.ToUpper(name)]
	if !isAgg || !p.at(tokSymbol, "(") {
		return name, nil
	}
	p.advance() // consume '('
	spec := AggSpec{Fn: fn}
	if p.accept(tokSymbol, "*") {
		if fn != AggCount {
			return "", p.errorf("%s(*) is only valid for COUNT", fn)
		}
	} else {
		col, err := p.parseIdent()
		if err != nil {
			return "", err
		}
		spec.Col = col
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return "", err
	}
	stmt.Aggregates = append(stmt.Aggregates, spec)
	return "", nil
}

// validateSelect enforces the dialect's aggregate rules.
func validateSelect(s *Select) error {
	if len(s.Aggregates) > 0 {
		if s.OrderBy != "" {
			return fmt.Errorf("ORDER BY is not supported on aggregate queries")
		}
		for _, c := range s.Columns {
			if !strings.EqualFold(c, s.GroupBy) {
				return fmt.Errorf("column %q must appear in GROUP BY", c)
			}
		}
		if len(s.Columns) > 1 {
			return fmt.Errorf("at most one grouping column may be selected")
		}
	} else {
		if s.GroupBy != "" {
			return fmt.Errorf("GROUP BY requires aggregate functions")
		}
	}
	return nil
}

// Expression grammar (loosest to tightest):
//
//	expr    := andExpr (OR andExpr)*
//	andExpr := cmpExpr (AND cmpExpr)*
//	cmpExpr := addExpr ((=|<>|<|<=|>|>=) addExpr
//	          | BETWEEN addExpr AND addExpr
//	          | IS [NOT] NULL)?
//	addExpr := mulExpr ((+|-) mulExpr)*
//	mulExpr := primary (* primary)*
//	primary := literal | column | ( expr )
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

var cmpOps = map[string]BinOp{
	"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseCmp() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokSymbol {
		if op, ok := cmpOps[p.cur().text]; ok {
			p.advance()
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: left, R: right}, nil
		}
	}
	if p.accept(tokKeyword, "BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		// Desugar to left >= lo AND left <= hi.
		return &Binary{Op: OpAnd,
			L: &Binary{Op: OpGe, L: left, R: lo},
			R: &Binary{Op: OpLe, L: left, R: hi}}, nil
	}
	if p.accept(tokKeyword, "IS") {
		neg := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{Expr: left, Negate: neg}, nil
	}
	return left, nil
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(tokSymbol, "+") || p.at(tokSymbol, "-") {
		op := OpAdd
		if p.cur().text == "-" {
			op = OpSub
		}
		p.advance()
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.accept(tokSymbol, "*") {
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpMul, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case p.accept(tokSymbol, "("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad float literal %q", t.text)
			}
			return &Literal{Val: catalog.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.text)
		}
		return &Literal{Val: catalog.NewInt(i)}, nil
	case t.kind == tokString:
		p.advance()
		return &Literal{Val: catalog.NewString(t.text)}, nil
	case t.kind == tokHex:
		p.advance()
		raw, err := decodeHex(t.text)
		if err != nil {
			return nil, p.errorf("bad hex literal: %v", err)
		}
		return &Literal{Val: catalog.NewBytes(raw)}, nil
	case t.kind == tokKeyword && t.text == "TIMESTAMP":
		p.advance()
		s, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		ts, err := parseTimeLiteral(s.text)
		if err != nil {
			return nil, p.errorf("bad timestamp literal %q: %v", s.text, err)
		}
		return &Literal{Val: catalog.NewTime(ts)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.advance()
		return &Literal{Val: catalog.Value{}}, nil
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		p.advance()
		return &Literal{Val: catalog.NewBool(t.text == "TRUE")}, nil
	case t.kind == tokIdent:
		p.advance()
		return &ColRef{Name: t.text}, nil
	default:
		return nil, p.errorf("expected expression, found %q", t.text)
	}
}

// timeFormats are accepted timestamp literal layouts, most specific
// first. The paper's example "12/5/99" style is accepted for flavor.
var timeFormats = []string{
	time.RFC3339Nano,
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02",
	"1/2/06",
	"1/2/2006",
}

func parseTimeLiteral(s string) (time.Time, error) {
	for _, f := range timeFormats {
		if ts, err := time.Parse(f, s); err == nil {
			return ts, nil
		}
	}
	return time.Time{}, fmt.Errorf("unrecognized time format")
}

func decodeHex(s string) ([]byte, error) {
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("odd-length hex string")
	}
	out := make([]byte, len(s)/2)
	for i := 0; i < len(out); i++ {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("invalid hex digit")
		}
		out[i] = hi<<4 | lo
	}
	return out, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
