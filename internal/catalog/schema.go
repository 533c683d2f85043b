package catalog

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a table.
type Column struct {
	Name    string
	Type    Type
	NotNull bool
}

// Schema is an ordered list of columns with constant-time lookup by
// name. Schemas are immutable after construction.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from columns. Column names must be unique
// (case-insensitive); NewSchema panics otherwise because a duplicate is
// always a programming error, not a runtime condition.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range s.cols {
		key := strings.ToLower(c.Name)
		if _, dup := s.byName[key]; dup {
			panic(fmt.Sprintf("catalog: duplicate column %q", c.Name))
		}
		s.byName[key] = i
	}
	return s
}

// NumColumns returns the column count.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// ColIndex returns the index of the named column (case-insensitive).
func (s *Schema) ColIndex(name string) (int, bool) {
	i, ok := s.byName[strings.ToLower(name)]
	return i, ok
}

// Project returns a new schema containing only the named columns, in
// the order given.
func (s *Schema) Project(names []string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i, ok := s.ColIndex(n)
		if !ok {
			return nil, fmt.Errorf("catalog: no column %q", n)
		}
		cols = append(cols, s.cols[i])
	}
	return NewSchema(cols...), nil
}

// Equal reports whether two schemas have identical column names (case
// insensitive), types, and null constraints in the same order. Log-based
// extraction uses this for its schema-match requirement.
func (s *Schema) Equal(o *Schema) bool {
	if s == nil || o == nil {
		return s == o
	}
	if len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		a, b := s.cols[i], o.cols[i]
		if !strings.EqualFold(a.Name, b.Name) || a.Type != b.Type || a.NotNull != b.NotNull {
			return false
		}
	}
	return true
}

// String renders the schema as a column list, e.g. "(id BIGINT NOT NULL, name VARCHAR)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Validate checks a tuple against the schema: arity, types of non-NULL
// values, and NOT NULL constraints.
func (s *Schema) Validate(t Tuple) error {
	if len(t) != len(s.cols) {
		return fmt.Errorf("catalog: tuple has %d values, schema has %d columns", len(t), len(s.cols))
	}
	for i, v := range t {
		c := s.cols[i]
		if v.IsNull() {
			if c.NotNull {
				return fmt.Errorf("catalog: NULL in NOT NULL column %q", c.Name)
			}
			continue
		}
		if v.Type() != c.Type {
			return fmt.Errorf("catalog: column %q expects %s, got %s", c.Name, c.Type, v.Type())
		}
	}
	return nil
}

// Coerce adapts v to col's type where a lossless conversion exists:
// NULL takes the column's type, and an integer becomes a DOUBLE. Every
// layer that turns a statement literal into a column value — the
// executor's rows and SET lists, the key analysis, the warehouse's
// view-only replay — converts through here, so they agree with the
// source on what a literal means.
func Coerce(v Value, col Column) (Value, error) {
	if v.IsNull() {
		return NewNull(col.Type), nil
	}
	if v.Type() == col.Type {
		return v, nil
	}
	if v.Type() == TypeInt64 && col.Type == TypeFloat64 {
		return NewFloat(float64(v.Int())), nil
	}
	return Value{}, fmt.Errorf("engine: column %q expects %s, got %s", col.Name, col.Type, v.Type())
}
