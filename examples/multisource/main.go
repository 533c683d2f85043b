// Multi-source: the architectural challenge of §2. Two COTS systems
// replicate the same logical PARTS data (a manufacturing system and a
// procurement system, each with its own database). Database-level value
// capture sees the *replicated* writes in both databases and produces
// duplicates that need reconciliation; Op-Delta capture at the business
// transaction level — where there is "only one authoritative
// representation of the fact" — produces a single clean stream, shipped
// to the warehouse over a persistent queue.
//
//	go run ./examples/multisource
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"opdelta"
)

const ddl = `CREATE TABLE parts (
	part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT, last_modified TIMESTAMP
) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`

// business is the integration layer: every business transaction updates
// both COTS systems (application-level replication the DBMSs are
// unaware of, as §2.2 describes) and is captured once, at the business
// level, as an Op-Delta.
type business struct {
	mfg, proc *opdelta.DB
	oplog     *opdelta.TableLog
	capture   *opdelta.Capture
}

func (b *business) exec(stmt string) {
	// Op-Delta capture happens once, at the integration layer, against
	// the authoritative system (manufacturing).
	if _, err := b.capture.Exec(nil, stmt); err != nil {
		log.Fatal(err)
	}
	// Application-level replication into the second COTS system.
	if _, err := b.proc.Exec(nil, stmt); err != nil {
		log.Fatal(err)
	}
}

func main() {
	work, err := os.MkdirTemp("", "opdelta-multisource-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)

	mfg := mustOpen(filepath.Join(work, "mfg"))
	defer mfg.Close()
	proc := mustOpen(filepath.Join(work, "proc"))
	defer proc.Close()
	for _, db := range []*opdelta.DB{mfg, proc} {
		if _, err := db.Exec(nil, ddl); err != nil {
			log.Fatal(err)
		}
	}

	// Database-level value capture on BOTH systems (what a trigger-based
	// product would deploy).
	mfgCap := &opdelta.TriggerCapture{DB: mfg, Table: "parts"}
	procCap := &opdelta.TriggerCapture{DB: proc, Table: "parts"}
	for _, c := range []*opdelta.TriggerCapture{mfgCap, procCap} {
		if err := c.Install(); err != nil {
			log.Fatal(err)
		}
	}
	oplog, err := opdelta.NewTableLog(mfg)
	if err != nil {
		log.Fatal(err)
	}
	biz := &business{mfg: mfg, proc: proc, oplog: oplog,
		capture: &opdelta.Capture{DB: mfg, Log: oplog}}

	// --- Business transactions -----------------------------------------
	biz.exec(`INSERT INTO parts (part_id, status, qty) VALUES (1, 'new', 100), (2, 'new', 200)`)
	biz.exec(`UPDATE parts SET status = 'released' WHERE part_id = 1`)
	biz.exec(`DELETE FROM parts WHERE part_id = 2`)

	// --- What each capture level sees ----------------------------------
	var mfgDeltas, procDeltas opdelta.CollectSink
	mfgCap.Extract(&mfgDeltas)
	procCap.Extract(&procDeltas)
	ops, err := oplog.Read(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database-level value capture: %d deltas from mfg + %d from proc = %d rows to reconcile\n",
		len(mfgDeltas.Deltas), len(procDeltas.Deltas), len(mfgDeltas.Deltas)+len(procDeltas.Deltas))
	fmt.Printf("business-level op capture:    %d ops, already authoritative\n\n", len(ops))

	// --- Ship the ops over a persistent queue and integrate -------------
	queue, err := opdelta.OpenQueue(filepath.Join(work, "queue"))
	if err != nil {
		log.Fatal(err)
	}
	defer queue.Close()
	table, _ := mfg.Table("parts")
	link := opdelta.LAN10Mb()
	for _, op := range ops {
		payload, err := op.Encode(nil, table.Schema)
		if err != nil {
			log.Fatal(err)
		}
		link.Send(len(payload))
		if err := queue.Append(payload); err != nil {
			log.Fatal(err)
		}
	}
	st := link.Stats()
	fmt.Printf("shipped %d ops (%d bytes) over the LAN in %s of virtual transfer time\n",
		st.Messages, st.BytesSent, st.TimeCharged.Round(0))

	whDB := mustOpen(filepath.Join(work, "warehouse"))
	defer whDB.Close()
	wh := opdelta.NewWarehouse(whDB)
	if err := wh.RegisterReplica("parts", table.Schema, "part_id", "last_modified"); err != nil {
		log.Fatal(err)
	}
	var shipped []*opdelta.Op
	for {
		msg, err := queue.Next()
		if err != nil {
			break // queue drained
		}
		op, _, err := opdelta.DecodeOp(msg, table.Schema)
		if err != nil {
			log.Fatal(err)
		}
		shipped = append(shipped, op)
	}
	if err := queue.Ack(); err != nil {
		log.Fatal(err)
	}
	if _, err := (&opdelta.OpDeltaIntegrator{W: wh}).Apply(shipped); err != nil {
		log.Fatal(err)
	}

	_, rows, err := whDB.Query(nil, `SELECT part_id, status, qty FROM parts`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwarehouse state (one authoritative copy, no reconciliation needed):")
	for _, row := range rows {
		fmt.Printf("  part %v: %v (qty %v)\n", row[0], row[1], row[2])
	}
}

func mustOpen(dir string) *opdelta.DB {
	db, err := opdelta.Open(dir, opdelta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return db
}
