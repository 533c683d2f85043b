package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"opdelta/internal/engine"
	"opdelta/internal/loadutil"
	"opdelta/internal/workload"
)

// RunTable1 reproduces Table 1: "Database deltas dump and load
// techniques" — Export time, Import time, and DBMS (ASCII) Loader time
// across delta sizes. The paper sweeps 100 MB..1 GB; the default
// configuration sweeps 1 MB..10 MB of 100-byte records and the shape —
// Import slowest by a growing factor, Export cheapest — carries.
func RunTable1(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	res := &Result{
		ID:       "table1",
		Title:    "Database deltas dump and load techniques (Table 1)",
		Unit:     "s",
		RowHeads: []string{"Export", "Import", "DBMS Loader"},
		Notes: []string{
			"paper: Export 3min..1h32m, Import 28min..9h59m, Loader 20min..2h58m over 100M..1000M",
		},
	}
	res.Values = make([][]float64, 3)
	for _, rows := range cfg.DeltaRows {
		res.ColHeads = append(res.ColHeads, sizeLabel(rows))
		p, err := table1At(&cfg, rows)
		if err != nil {
			return nil, err
		}
		res.Values[0] = append(res.Values[0], p.export.Seconds())
		res.Values[1] = append(res.Values[1], p.imp.Seconds())
		res.Values[2] = append(res.Values[2], p.load.Seconds())
	}
	return res, nil
}

// table1Point is one delta size of Table 1: each technique's time and
// the counts behind it.
type table1Point struct {
	export, imp, load time.Duration
	// Rows each technique moved.
	exportRows, importRows, loadRows int64
	// WAL records each technique appended: Export only reads, Import
	// logs every row through the engine, the loader bypasses the log.
	exportWAL, importWAL, loadWAL uint64
}

// table1At exports a rows-row delta from a fresh source, then imports
// it into one fresh warehouse and direct-loads it into another.
func table1At(cfg *Config, rows int) (table1Point, error) {
	var p table1Point
	src, _, err := populatedSource(cfg, fmt.Sprintf("t1-src-%d", rows), rows, false)
	if err != nil {
		return p, err
	}
	dir := filepath.Dir(src.Dir())
	expPath := filepath.Join(dir, "delta.exp")
	tsvPath := filepath.Join(dir, "delta.tsv")

	walBefore := src.WAL().Stats().Appended
	p.export, err = timeIt(func() (err error) {
		p.exportRows, err = loadutil.Export(src, "parts", expPath)
		return err
	})
	p.exportWAL = src.WAL().Stats().Appended - walBefore
	if err != nil {
		src.Close()
		return p, err
	}
	if _, err := loadutil.ASCIIDump(src, "parts", tsvPath); err != nil {
		src.Close()
		return p, err
	}
	src.Close()

	// into runs one technique against a fresh warehouse with the parts
	// table, returning its time and the WAL records it appended.
	into := func(name string, fn func(db *engine.DB) (int64, error)) (time.Duration, int64, uint64, error) {
		d, err := scratch(cfg, name)
		if err != nil {
			return 0, 0, 0, err
		}
		db, _, err := newWarehouseDB(cfg, d)
		if err != nil {
			return 0, 0, 0, err
		}
		defer db.Close()
		if err := workload.CreateParts(db); err != nil {
			return 0, 0, 0, err
		}
		var n int64
		before := db.WAL().Stats().Appended
		dur, err := timeIt(func() (err error) {
			n, err = fn(db)
			return err
		})
		return dur, n, db.WAL().Stats().Appended - before, err
	}
	// Import through the full engine path.
	p.imp, p.importRows, p.importWAL, err = into(fmt.Sprintf("t1-imp-%d", rows), func(db *engine.DB) (int64, error) {
		return loadutil.Import(db, "parts", expPath, loadutil.ImportOptions{BatchRows: table1ImportBatch})
	})
	if err != nil {
		return p, err
	}
	// Direct block load.
	p.load, p.loadRows, p.loadWAL, err = into(fmt.Sprintf("t1-load-%d", rows), func(db *engine.DB) (int64, error) {
		return loadutil.ASCIILoad(db, "parts", tsvPath)
	})
	return p, err
}

// table1ImportBatch is the rows per Import transaction.
const table1ImportBatch = 500
