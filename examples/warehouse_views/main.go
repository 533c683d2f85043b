// Warehouse views: the destination-side machinery the paper's §4
// integration story relies on, all fed from one captured op stream —
// a full replica, a filtered projection view, an equi-join view, and an
// incrementally-maintained aggregate summary (the shape Labio et al.,
// cited in the paper's introduction, shrink update windows for).
//
//	go run ./examples/warehouse_views
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"opdelta"
)

func main() {
	work, err := os.MkdirTemp("", "opdelta-views-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)

	// --- Source with op capture -----------------------------------------
	src, err := opdelta.Open(filepath.Join(work, "src"), opdelta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	ddl := []string{
		`CREATE TABLE parts (
			part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT, last_modified TIMESTAMP
		) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`,
		`CREATE TABLE orders (
			order_id BIGINT NOT NULL, part_id BIGINT, amount BIGINT
		) PRIMARY KEY (order_id)`,
	}
	for _, d := range ddl {
		if _, err := src.Exec(nil, d); err != nil {
			log.Fatal(err)
		}
	}
	oplog, err := opdelta.NewTableLog(src)
	if err != nil {
		log.Fatal(err)
	}
	capture := &opdelta.Capture{DB: src, Log: oplog}

	for _, stmt := range []string{
		`INSERT INTO parts (part_id, status, qty) VALUES (1, 'active', 10), (2, 'active', 20), (3, 'retired', 30)`,
		`INSERT INTO orders VALUES (100, 1, 7), (101, 2, 9), (102, 3, 4), (103, 1, 2)`,
		`UPDATE parts SET status = 'retired' WHERE part_id = 2`,
		`DELETE FROM orders WHERE order_id = 103`,
	} {
		if _, err := capture.Exec(nil, stmt); err != nil {
			log.Fatal(err)
		}
	}

	// --- Warehouse: replicas + three view flavors ------------------------
	whDB, err := opdelta.Open(filepath.Join(work, "wh"), opdelta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer whDB.Close()
	wh := opdelta.NewWarehouse(whDB)
	parts, _ := src.Table("parts")
	orders, _ := src.Table("orders")
	if err := wh.RegisterReplica("parts", parts.Schema, "part_id", "last_modified"); err != nil {
		log.Fatal(err)
	}
	if err := wh.RegisterReplica("orders", orders.Schema, "order_id", ""); err != nil {
		log.Fatal(err)
	}

	activeWhere, err := opdelta.ParseExpr(`status = 'active'`)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := wh.RegisterView(opdelta.ViewDef{
		Name: "active_parts", Source: "parts",
		Project: []string{"part_id", "qty"}, Where: activeWhere,
	}, parts.Schema, nil); err != nil {
		log.Fatal(err)
	}
	if _, err := wh.RegisterView(opdelta.ViewDef{
		Name: "order_detail", Source: "orders",
		Project: []string{"order_id", "amount", "part_id", "status"},
		Join:    &opdelta.JoinSpec{Table: "parts", LeftCol: "part_id", RightCol: "part_id"},
	}, orders.Schema, parts.Schema); err != nil {
		log.Fatal(err)
	}
	if _, err := wh.RegisterAggView(opdelta.AggViewDef{
		Name: "qty_by_status", Source: "parts", GroupBy: "status",
		Aggregates: []opdelta.AggSpec{{Fn: opdelta.AggCount}, {Fn: opdelta.AggSum, Col: "qty"}},
	}, parts.Schema); err != nil {
		log.Fatal(err)
	}

	// --- Integrate the op stream; every view follows ---------------------
	ops, err := oplog.Read(0)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := (&opdelta.OpDeltaIntegrator{W: wh}).Apply(ops); err != nil {
		log.Fatal(err)
	}

	show := func(title, query string) {
		schema, rows, err := whDB.Query(nil, query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", title)
		var heads []string
		for _, c := range schema.Columns() {
			heads = append(heads, c.Name)
		}
		fmt.Printf("  %v\n", heads)
		for _, row := range rows {
			fmt.Printf("  %v\n", row)
		}
		fmt.Println()
	}
	show("active_parts (projection + selection view):",
		`SELECT * FROM active_parts ORDER BY part_id`)
	show("order_detail (equi-join view):",
		`SELECT * FROM order_detail ORDER BY order_id`)
	show("qty_by_status (incremental aggregate view):",
		`SELECT * FROM qty_by_status ORDER BY status`)
	show("ad-hoc aggregate over the replica (engine GROUP BY):",
		`SELECT status, COUNT(*), SUM(qty), AVG(qty) FROM parts GROUP BY status`)
}
