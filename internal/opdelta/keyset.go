package opdelta

import (
	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/sqlmini"
)

// StatementFootprint computes the key footprint of stmt on its own
// table; see keyset.StatementFootprint.
func StatementFootprint(stmt sqlmini.Statement, schema *catalog.Schema, pk string) keyset.Footprint {
	return keyset.StatementFootprint(stmt, schema, pk)
}
