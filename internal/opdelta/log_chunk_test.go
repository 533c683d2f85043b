package opdelta

import (
	"strings"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/storage"
)

// opOfEncodedSize builds an op whose encoding (Op.Encode, the unit
// TableLog chunks) is exactly target bytes. With hybrid set it dials
// the length of one before image's status string; otherwise the length
// of the statement text.
func opOfEncodedSize(t *testing.T, schema *catalog.Schema, target int, hybrid bool) *Op {
	t.Helper()
	mk := func(l int) *Op {
		op := &Op{Txn: 9, Kind: OpInsert, Table: "parts",
			Stmt: "INSERT INTO parts (part_id, status) VALUES (1, '" + strings.Repeat("s", l) + "')",
			Time: time.Date(2000, 3, 1, 0, 0, 0, 0, time.UTC)}
		if hybrid {
			op.Kind, op.Stmt, op.Hybrid = OpDelete, "DELETE FROM parts", true
			op.Before = []catalog.Tuple{{
				catalog.NewInt(1),
				catalog.NewString(strings.Repeat("s", l)),
				catalog.NewNull(catalog.TypeInt64),
				catalog.NewNull(catalog.TypeTime),
			}}
		}
		return op
	}
	size := func(l int) int {
		enc, err := mk(l).Encode(nil, schema)
		if err != nil {
			t.Fatal(err)
		}
		return len(enc)
	}
	l := target
	for i := 0; i < 20 && l >= 0; i++ {
		got := size(l)
		if got == target {
			return mk(l)
		}
		l -= got - target
	}
	t.Fatalf("cannot hit encoded size %d", target)
	return nil
}

// TestTableLogChunkBoundary pins the op-log row split at opChunk
// exactly: a small encoding takes one row, and encodings a byte under,
// at and a byte over one and two chunks take 1, 1, 2, 2, 2 and 3 rows,
// whether the statement text or a before image fills them. Every size
// reads back intact, from the tail and reassembled from the table. A
// row holding a full chunk is the largest record a page takes.
func TestTableLogChunkBoundary(t *testing.T) {
	full := catalog.Tuple{catalog.NewInt(1), catalog.NewInt(0), catalog.NewBytes(make([]byte, opChunk))}
	if sz, err := catalog.EncodedSize(tableLogSchema(), full); err != nil || sz != storage.MaxRecord {
		t.Fatalf("a full-chunk row encodes to %d bytes (%v), want the page's largest record, %d", sz, err, storage.MaxRecord)
	}

	db := openDB(t)
	createParts(t, db)
	tbl, err := db.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	log, err := NewTableLog(db)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		encoded  int // Op.Encode bytes
		wantRows int
	}{
		{100, 1},
		{opChunk - 1, 1},
		{opChunk, 1},
		{opChunk + 1, 2},
		{2*opChunk - 1, 2},
		{2 * opChunk, 2},
		{2*opChunk + 1, 3},
	}
	for _, hybrid := range []bool{false, true} {
		for _, c := range cases {
			op := opOfEncodedSize(t, tbl.Schema, c.encoded, hybrid)
			tx := db.Begin()
			if err := log.Append(tx, op); err != nil {
				t.Fatalf("%d bytes (hybrid %v): append: %v", c.encoded, hybrid, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			rows := 0
			if err := db.ScanTable(nil, TableLogName, func(row catalog.Tuple) error {
				if uint64(row[0].Int()) == op.Seq {
					rows++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if rows != c.wantRows {
				t.Fatalf("%d bytes (hybrid %v): stored in %d rows, want %d", c.encoded, hybrid, rows, c.wantRows)
			}

			warm, err := log.Read(op.Seq - 1)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := log.readRows(op.Seq-1, op.Seq)
			if err != nil {
				t.Fatalf("%d bytes (hybrid %v): cold read: %v", c.encoded, hybrid, err)
			}
			sameOps(t, "tail", warm, []*Op{op})
			sameOps(t, "table", cold, []*Op{op})
		}
	}
}
