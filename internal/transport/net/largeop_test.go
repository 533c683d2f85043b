package netrepl

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/opdelta"
	"opdelta/internal/storage"
	"opdelta/internal/wal"
)

// TestPageSizedOpsReplicateFromTheTable captures two ops that no single
// page holds — a 100-row INSERT whose statement is over 8 KB, and a
// hybrid DELETE whose statement is over 2 KB and whose before images
// are over 6 KiB — through Capture into a TableLog. It reopens the
// source, so the shipper's reads are served from the op-log table, not
// the in-memory tail, and replicates through a server with Replica:
// the replica must end equal to the source.
func TestPageSizedOpsReplicateFromTheTable(t *testing.T) {
	dir := t.TempDir()
	open := func() (*engine.DB, *opdelta.TableLog) {
		db, err := engine.Open(dir, engine.Options{WALSync: wal.SyncFlush, Now: fixedNow})
		if err != nil {
			t.Fatal(err)
		}
		log, err := opdelta.NewTableLog(db)
		if err != nil {
			db.Close()
			t.Fatal(err)
		}
		return db, log
	}
	db, log := open()
	if _, err := db.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	view := opdelta.ViewDef{
		Name: "slim_parts", Source: "parts",
		Project:  []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}
	capture := &opdelta.Capture{DB: db, Log: log, Analyzer: opdelta.NewAnalyzer(view)}
	values := make([]string, 100)
	for i := range values {
		values[i] = fmt.Sprintf("(%d, '%s', %d)", i+1, strings.Repeat(string(rune('a'+i%26)), 80), i+1)
	}
	insert := "INSERT INTO parts (part_id, status, qty) VALUES " + strings.Join(values, ", ")
	del := "DELETE FROM parts WHERE qty <= 90 AND status <> '" + strings.Repeat("z", 2100) + "'"
	for _, stmt := range []string{insert, del} {
		if _, err := capture.Exec(nil, stmt); err != nil {
			t.Fatalf("capture %.40s…: %v", stmt, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, log = open()
	defer db.Close()
	ops, err := log.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].Kind != opdelta.OpInsert || ops[1].Kind != opdelta.OpDelete || !ops[1].Hybrid {
		t.Fatalf("read back %d ops, want the INSERT and the hybrid DELETE", len(ops))
	}
	schema, err := db.Schema("parts")
	if err != nil {
		t.Fatal(err)
	}
	images := 0
	for _, img := range ops[1].Before {
		sz, err := catalog.EncodedSize(schema, img)
		if err != nil {
			t.Fatal(err)
		}
		images += sz
	}
	if len(ops[0].Stmt) <= storage.PageSize || len(ops[1].Stmt) <= 2<<10 || images <= 6<<10 {
		t.Fatalf("ops too small to test the page cliff: statements %d and %d bytes, images %d bytes",
			len(ops[0].Stmt), len(ops[1].Stmt), images)
	}

	wh := newReplWarehouse(t, schema)
	replica, err := NewReplica(wh.wh, "src", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	nw := fault.NewNet(fault.NetProfile{Seed: 1})
	startServer(t, nw, ServerConfig{
		Dir:     t.TempDir(),
		Replica: func(string) (*Replica, error) { return replica, nil },
	})
	sh := NewShipper(ShipperConfig{Source: "src", Dial: nw.Dial, Fetch: log.Read, SchemaOf: db.Schema, Retry: fastPolicy})
	stop := make(chan struct{})
	shipped := make(chan error, 1)
	go func() { shipped <- sh.Run(stop) }()
	waitFor(t, 10*time.Second, "full ack", func() bool { return sh.Acked() == ops[1].Seq })
	waitFor(t, 10*time.Second, "replica convergence", func() bool {
		return sameRows(tableRows(t, db, "parts"), tableRows(t, wh.db, "parts"))
	})
	close(stop)
	if err := <-shipped; err != nil {
		t.Fatal(err)
	}
	if n := len(tableRows(t, wh.db, "parts")); n != 10 {
		t.Fatalf("replica holds %d rows, want the 10 the DELETE left", n)
	}
}
