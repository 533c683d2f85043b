// Command dwctl manages a warehouse database: initialize it, integrate
// value-delta or op-delta files produced by opdeltad, and run ad-hoc
// queries.
//
// Usage:
//
//	dwctl -dir WH init -ddl "CREATE TABLE parts (...)"
//	dwctl -dir WH apply-deltas -table parts -file parts.000001.delta
//	dwctl -dir WH apply-ops -table parts -file parts.000001.ops
//	dwctl -dir WH query -sql "SELECT * FROM parts WHERE part_id < 10"
//	dwctl -dir WH stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"opdelta/internal/engine"
	"opdelta/internal/extract"
	"opdelta/internal/loadutil"
	"opdelta/internal/opdelta"
	"opdelta/internal/warehouse"
)

func main() {
	dir := flag.String("dir", "", "warehouse database directory (required)")
	flag.Parse()
	args := flag.Args()
	if *dir == "" || len(args) == 0 {
		usage()
	}
	db, err := engine.Open(*dir, engine.Options{})
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "init":
		runInit(db, rest)
	case "apply-deltas":
		runApplyDeltas(db, rest)
	case "apply-ops":
		runApplyOps(db, rest)
	case "query":
		runQuery(db, rest)
	case "stats":
		runStats(db)
	case "index":
		runIndex(db, rest)
	default:
		usage()
	}
}

func runInit(db *engine.DB, args []string) {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	ddl := fs.String("ddl", "", "CREATE TABLE statement (or @file to read one per line)")
	fs.Parse(args)
	if *ddl == "" {
		fatal(fmt.Errorf("init needs -ddl"))
	}
	stmts := []string{*ddl}
	if strings.HasPrefix(*ddl, "@") {
		data, err := os.ReadFile((*ddl)[1:])
		if err != nil {
			fatal(err)
		}
		stmts = nil
		for _, line := range strings.Split(string(data), ";") {
			if s := strings.TrimSpace(line); s != "" {
				stmts = append(stmts, s)
			}
		}
	}
	for _, s := range stmts {
		if _, err := db.Exec(nil, s); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("initialized %d table(s): %s\n", len(stmts), strings.Join(db.Tables(), ", "))
}

func runApplyDeltas(db *engine.DB, args []string) {
	fs := flag.NewFlagSet("apply-deltas", flag.ExitOnError)
	table := fs.String("table", "parts", "destination table")
	file := fs.String("file", "", "delta file from opdeltad (required)")
	fs.Parse(args)
	if *file == "" {
		fatal(fmt.Errorf("apply-deltas needs -file"))
	}
	tbl, err := db.Table(*table)
	if err != nil {
		fatal(err)
	}
	deltas, err := extract.ReadDeltaFile(*file, tbl.Schema)
	if err != nil {
		fatal(err)
	}
	w := warehouse.New(db)
	if err := w.RegisterReplica(*table, tbl.Schema, pkName(tbl), tsName(tbl)); err != nil &&
		!strings.Contains(err.Error(), "already registered") {
		fatal(err)
	}
	stats, err := (&warehouse.ValueDeltaIntegrator{W: w}).Apply(deltas)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("applied %d value deltas (%d statements, %d txn) in %s\n",
		stats.Records, stats.Statements, stats.Txns, stats.Duration.Round(0))
}

func runApplyOps(db *engine.DB, args []string) {
	fs := flag.NewFlagSet("apply-ops", flag.ExitOnError)
	table := fs.String("table", "parts", "destination table")
	file := fs.String("file", "", "ops file from opdeltad (required)")
	fs.Parse(args)
	if *file == "" {
		fatal(fmt.Errorf("apply-ops needs -file"))
	}
	tbl, err := db.Table(*table)
	if err != nil {
		fatal(err)
	}
	ops, err := readOpsFile(*file, tbl)
	if err != nil {
		fatal(err)
	}
	w := warehouse.New(db)
	if err := w.RegisterReplica(*table, tbl.Schema, pkName(tbl), tsName(tbl)); err != nil &&
		!strings.Contains(err.Error(), "already registered") {
		fatal(err)
	}
	stats, err := (&warehouse.ParallelIntegrator{W: w}).Apply(ops)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("applied %d ops (%d statements, %d txns) in %s\n",
		stats.Records, stats.Statements, stats.Txns, stats.Duration.Round(0))
}

func readOpsFile(path string, tbl *engine.Table) ([]*opdelta.Op, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	frames, end := opdelta.SplitOpFrames(data)
	if end != len(data) {
		return nil, fmt.Errorf("truncated ops file at offset %d", end)
	}
	ops := make([]*opdelta.Op, 0, len(frames))
	for _, frame := range frames {
		op, _, err := opdelta.DecodeOp(frame, tbl.Schema)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func runQuery(db *engine.DB, args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	sql := fs.String("sql", "", "SELECT statement (required)")
	limit := fs.Int("limit", 20, "max rows to print")
	fs.Parse(args)
	if *sql == "" {
		fatal(fmt.Errorf("query needs -sql"))
	}
	schema, rows, err := db.Query(nil, *sql)
	if err != nil {
		fatal(err)
	}
	var heads []string
	for _, c := range schema.Columns() {
		heads = append(heads, c.Name)
	}
	fmt.Println(strings.Join(heads, "\t"))
	for i, row := range rows {
		if i >= *limit {
			fmt.Printf("... (%d more rows)\n", len(rows)-*limit)
			break
		}
		if err := loadutil.WriteTupleASCII(os.Stdout, row); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("(%d rows)\n", len(rows))
}

func runIndex(db *engine.DB, args []string) {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	table := fs.String("table", "parts", "table to index")
	column := fs.String("column", "", "column to index (required)")
	drop := fs.Bool("drop", false, "drop the index instead of creating it")
	fs.Parse(args)
	if *column == "" {
		fatal(fmt.Errorf("index needs -column"))
	}
	var err error
	if *drop {
		err = db.DropSecondaryIndex(*table, *column)
	} else {
		err = db.CreateSecondaryIndex(*table, *column)
	}
	if err != nil {
		fatal(err)
	}
	t, _ := db.Table(*table)
	fmt.Printf("indexes on %s: %v\n", *table, t.SecondaryIndexes())
}

func runStats(db *engine.DB) {
	for _, name := range db.Tables() {
		t, err := db.Table(name)
		if err != nil {
			continue
		}
		io := t.Heap().Disk().Stats()
		pool := t.Heap().Pool().Stats()
		fmt.Printf("%-24s rows=%-9d pages=%-6d reads=%-6d writes=%-6d pool(hit=%d miss=%d evict=%d)\n",
			name, t.NumRows(), t.Heap().NumPages(), io.Reads, io.Writes,
			pool.Hits, pool.Misses, pool.Evictions)
	}
	w := db.WAL().Stats()
	fmt.Printf("%-24s appended=%d flushes=%d syncs=%d rotations=%d\n", "(wal)", w.Appended, w.Flushes, w.Syncs, w.Rotations)
}

func pkName(t *engine.Table) string {
	if t.PKCol < 0 {
		return ""
	}
	return t.Schema.Column(t.PKCol).Name
}

func tsName(t *engine.Table) string {
	if t.TSCol < 0 {
		return ""
	}
	return t.Schema.Column(t.TSCol).Name
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dwctl -dir WH <command> [flags]
commands: init, apply-deltas, apply-ops, query, index, stats`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwctl:", err)
	os.Exit(1)
}
