// Online maintenance: §4.1's headline claim, live. The same captured
// source work is integrated into two identical warehouses — once as a
// value-delta batch (one indivisible transaction) and once as Op-Deltas
// (one small transaction per source transaction) — while OLAP readers
// hammer the warehouse. Watch the reader stall under the batch.
//
//	go run ./examples/online_maintenance
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"opdelta"
)

const (
	tableRows = 30_000
	srcTxns   = 150
	rowsPer   = 100
)

func main() {
	work, err := os.MkdirTemp("", "opdelta-online-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)

	// --- Source: run transactions under both captures -------------------
	src := mustOpen(filepath.Join(work, "source"))
	defer src.Close()
	mustSeed(src, tableRows)

	vc := &opdelta.TriggerCapture{DB: src, Table: "parts"}
	if err := vc.Install(); err != nil {
		log.Fatal(err)
	}
	oplog, err := opdelta.NewTableLog(src)
	if err != nil {
		log.Fatal(err)
	}
	capture := &opdelta.Capture{DB: src, Log: oplog}

	fmt.Printf("running %d source update transactions of %d rows each...\n", srcTxns, rowsPer)
	for i := 0; i < srcTxns; i++ {
		first := (i * rowsPer) % (tableRows - rowsPer)
		stmt := fmt.Sprintf("UPDATE parts SET status = 'm%d' WHERE part_id BETWEEN %d AND %d",
			i, first, first+rowsPer-1)
		if _, err := capture.Exec(nil, stmt); err != nil {
			log.Fatal(err)
		}
	}
	var deltas opdelta.CollectSink
	if _, err := vc.Extract(&deltas); err != nil {
		log.Fatal(err)
	}
	ops, err := oplog.Read(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d value deltas and %d op-deltas\n\n", len(deltas.Deltas), len(ops))

	// --- Integrate each way with concurrent readers ---------------------
	srcTable, _ := src.Table("parts")
	run := func(label string, integrate func(w *opdelta.Warehouse) (opdelta.ApplyStats, error)) {
		whDB := mustOpen(filepath.Join(work, label))
		defer whDB.Close()
		w := opdelta.NewWarehouse(whDB)
		if err := w.RegisterReplica("parts", srcTable.Schema, "part_id", "last_modified"); err != nil {
			log.Fatal(err)
		}
		mustPopulateReplica(whDB, tableRows)

		stop := make(chan struct{})
		var mu sync.Mutex
		var maxLat time.Duration
		queries := 0
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					t0 := time.Now()
					if _, _, err := whDB.Query(nil, `SELECT part_id FROM parts WHERE qty >= 500`); err != nil {
						return
					}
					lat := time.Since(t0)
					mu.Lock()
					if lat > maxLat {
						maxLat = lat
					}
					queries++
					mu.Unlock()
				}
			}()
		}
		time.Sleep(20 * time.Millisecond)
		stats, err := integrate(w)
		close(stop)
		wg.Wait()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s window=%-10s warehouse txns=%-5d readers: served=%-5d worst latency=%s\n",
			label+":", stats.Duration.Round(time.Millisecond), stats.Txns, queries,
			maxLat.Round(time.Millisecond))
	}

	run("value-delta-batch", func(w *opdelta.Warehouse) (opdelta.ApplyStats, error) {
		return (&opdelta.ValueDeltaIntegrator{W: w}).Apply(deltas.Deltas)
	})
	run("op-delta-stream", func(w *opdelta.Warehouse) (opdelta.ApplyStats, error) {
		return (&opdelta.OpDeltaIntegrator{W: w}).Apply(ops)
	})
	fmt.Println("\nthe batch holds the table lock for its whole window (readers stall);")
	fmt.Println("op-delta integration preserves source transaction boundaries and interleaves.")
}

func mustOpen(dir string) *opdelta.DB {
	db, err := opdelta.Open(dir, opdelta.Options{PoolPages: 1024})
	if err != nil {
		log.Fatal(err)
	}
	return db
}

func mustSeed(db *opdelta.DB, n int) {
	if _, err := db.Exec(nil, `CREATE TABLE parts (
		part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT, last_modified TIMESTAMP
	) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`); err != nil {
		log.Fatal(err)
	}
	mustPopulateReplica(db, n)
}

func mustPopulateReplica(db *opdelta.DB, n int) {
	if _, err := db.Table("parts"); err != nil {
		log.Fatal(err)
	}
	const batch = 1000
	for base := 0; base < n; base += batch {
		tx := db.Begin()
		for i := base; i < base+batch && i < n; i++ {
			row := opdelta.Tuple{
				opdelta.NewInt(int64(i)),
				opdelta.NewString("seed"),
				opdelta.NewInt(int64(i % 1000)),
				opdelta.NewTime(time.Now()),
			}
			if err := db.InsertTuple(tx, "parts", row); err != nil {
				log.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
}
