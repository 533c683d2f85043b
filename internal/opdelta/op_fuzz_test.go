package opdelta

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"opdelta/internal/catalog"
)

// fuzzSchema decodes every fuzzed op's before images, whatever its table
// name: one column of each type, so every branch of the tuple decoder
// is reachable.
var fuzzSchema = catalog.NewSchema(
	catalog.Column{Name: "id", Type: catalog.TypeInt64, NotNull: true},
	catalog.Column{Name: "s", Type: catalog.TypeString},
	catalog.Column{Name: "f", Type: catalog.TypeFloat64},
	catalog.Column{Name: "b", Type: catalog.TypeBool},
	catalog.Column{Name: "t", Type: catalog.TypeTime},
	catalog.Column{Name: "raw", Type: catalog.TypeBytes},
)

func fuzzSchemaOf(string) (*catalog.Schema, error) { return fuzzSchema, nil }

// FuzzDecodeOp feeds DecodeOpResolve arbitrary bytes, as the wire, op
// files and the op-log table can. It must never panic, and an op it
// accepts must re-encode to exactly the bytes it consumed. The seeds
// are Encode's output for a plain, a hybrid and a multi-chunk op, plus
// a table-name length and an image count of 1<<62.
func FuzzDecodeOp(f *testing.F) {
	now := time.Date(2000, 3, 1, 0, 0, 0, 0, time.UTC)
	img := func(s string) catalog.Tuple {
		return catalog.Tuple{catalog.NewInt(7), catalog.NewString(s), catalog.NewFloat(math.Pi),
			catalog.NewBool(true), catalog.NewTime(now), catalog.NewNull(catalog.TypeBytes)}
	}
	seeds := []*Op{
		{Seq: 1, Txn: 2, Kind: OpInsert, Table: "parts", Stmt: "INSERT INTO parts (id) VALUES (1)", Time: now},
		{Seq: 3, Txn: 4, Kind: OpDelete, Table: "parts", Stmt: "DELETE FROM parts WHERE f > 1", Time: now,
			Hybrid: true, Before: []catalog.Tuple{img("a"), img("")}},
		{Seq: 5, Txn: 6, Kind: OpUpdate, Table: "parts", Stmt: "UPDATE parts SET s = 'x' WHERE f > 1", Time: now,
			Hybrid: true, Before: []catalog.Tuple{img(strings.Repeat("y", opChunk))}},
	}
	var header []byte
	for _, op := range seeds {
		enc, err := op.Encode(nil, fuzzSchema)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		header = enc[:opHeaderSize]
	}
	f.Add(binary.AppendUvarint(bytes.Clone(header), 1<<62))
	named := appendBlob(appendBlob(bytes.Clone(header), []byte("parts")), []byte("DELETE FROM parts"))
	f.Add(binary.AppendUvarint(named, 1<<62))

	f.Fuzz(func(t *testing.T, data []byte) {
		op, n, err := DecodeOpResolve(data, fuzzSchemaOf)
		if err != nil {
			return
		}
		enc, err := op.Encode(nil, fuzzSchema)
		if err != nil {
			t.Fatalf("decoded op does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data[:n]) {
			at := 0
			for at < min(n, len(enc)) && enc[at] == data[at] {
				at++
			}
			t.Fatalf("decoded %d bytes; the op re-encodes to %d bytes, which differ from byte %d", n, len(enc), at)
		}
	})
}
