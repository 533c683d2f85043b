// Quickstart: capture Op-Deltas at a source database and replay them at
// a warehouse.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"opdelta"
)

func main() {
	work, err := os.MkdirTemp("", "opdelta-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)

	// --- Source system -------------------------------------------------
	src, err := opdelta.Open(filepath.Join(work, "source"), opdelta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()

	if _, err := src.Exec(nil, `CREATE TABLE parts (
		part_id BIGINT NOT NULL,
		status VARCHAR,
		qty BIGINT,
		last_modified TIMESTAMP
	) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`); err != nil {
		log.Fatal(err)
	}

	// Wrap the engine with Op-Delta capture: every DML statement is
	// recorded in the op log right before it executes — the paper's
	// COTS-software / wrapper interception point.
	oplog, err := opdelta.NewTableLog(src)
	if err != nil {
		log.Fatal(err)
	}
	capture := &opdelta.Capture{DB: src, Log: oplog}

	statements := []string{
		`INSERT INTO parts (part_id, status, qty) VALUES (1, 'new', 10), (2, 'new', 20), (3, 'hold', 30)`,
		`UPDATE parts SET status = 'revised' WHERE qty >= 20`,
		`DELETE FROM parts WHERE part_id = 1`,
	}
	for _, stmt := range statements {
		if _, err := capture.Exec(nil, stmt); err != nil {
			log.Fatal(err)
		}
	}

	ops, err := oplog.Read(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d op-deltas at the source:\n", len(ops))
	for _, op := range ops {
		fmt.Printf("  txn=%d  %s\n", op.Txn, op.Stmt)
	}

	// --- Warehouse ------------------------------------------------------
	whDB, err := opdelta.Open(filepath.Join(work, "warehouse"), opdelta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer whDB.Close()

	srcTable, err := src.Table("parts")
	if err != nil {
		log.Fatal(err)
	}
	wh := opdelta.NewWarehouse(whDB)
	if err := wh.RegisterReplica("parts", srcTable.Schema, "part_id", "last_modified"); err != nil {
		log.Fatal(err)
	}

	stats, err := (&opdelta.OpDeltaIntegrator{W: wh}).Apply(ops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nintegrated %d ops in %d warehouse transactions (%s)\n",
		stats.Records, stats.Txns, stats.Duration.Round(0))

	_, rows, err := whDB.Query(nil, `SELECT part_id, status, qty FROM parts`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwarehouse replica now holds:")
	for _, row := range rows {
		fmt.Printf("  part %v: %v (qty %v)\n", row[0], row[1], row[2])
	}
}
