// Command opdeltad is the extraction daemon: it runs delta extraction
// passes against a source database directory using any of the paper's
// methods and writes the results to an output directory, maintaining
// the method's cursor across invocations.
//
// Usage:
//
//	opdeltad -src DIR -out DIR -table parts -method METHOD [-watch INTERVAL]
//
// Methods:
//
//	timestamp  SELECT rows whose last-modified column advanced (upserts only)
//	trigger    drain the trigger-capture table (must be installed by the app)
//	log        mine committed changes from the WAL/archive
//	snapshot   snapshot the table and diff against the previous snapshot
//	opdelta    read captured operations from the op log table
//
// Each pass appends a numbered delta file (<table>.<seq>.delta for value
// deltas, <table>.<seq>.ops for operations) to the output directory.
//
// With -metrics ADDR the daemon serves /metrics (Prometheus text
// exposition), /debug/deltaz (recent delta lifecycle traces, JSON) and
// /debug/spanz (recent span traces, JSON; ?format=tree for a rendered
// span tree) on ADDR; port 0 picks a free port and the resolved URL is
// printed. -pprof additionally mounts net/http/pprof profiles under
// /debug/pprof/ on the same mux. -tracesample and -slowspan control
// span head-sampling and the slow-trace log threshold.
//
// With -serve the daemon is the warehouse side of networked
// replication: it accepts shipper connections on -listen, lands op
// batches in per-source durable topics under -out, and applies each
// source into its own warehouse exactly once (see serve.go). With
// -ship ADDR it is the source side: load generation through Op-Delta
// capture under -src, streamed to the server with acked resumable
// delivery (see ship.go). Both drain gracefully on SIGINT/SIGTERM and
// resume from the last acked durable LSN after a hard kill.
//
// With -live the daemon runs both sides in one process, connected over
// a loopback listener (see live.go): source -source under -src, its
// topic and warehouse under -out as -serve lays them out
// (out/topics/<source>, out/wh-<source>). Every delta's lifecycle is
// stamped, so the metrics endpoint reports live freshness lag, and a
// restart over the same directories resumes exactly once.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/extract"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/wal"
)

func main() {
	var (
		srcDir     = flag.String("src", "", "source database directory (required)")
		outDir     = flag.String("out", "", "output directory for delta files and cursors (required)")
		table      = flag.String("table", "parts", "source table to extract from")
		method     = flag.String("method", "timestamp", "timestamp|trigger|log|snapshot|opdelta")
		watch      = flag.Duration("watch", 0, "re-extract on this interval (0 = one pass)")
		window     = flag.Int("window", 0, "snapshot method: window rows (0 = exact sort-merge)")
		archive    = flag.Bool("archive", false, "log method: mine the archive directory instead of the live WAL")
		metrics    = flag.String("metrics", "", "serve /metrics and /debug/deltaz on this address (port 0 picks a free port)")
		live       = flag.Bool("live", false, "run -serve and -ship in one process: capture under -src, topic and warehouse under -out")
		loadgen    = flag.Int("loadgen", 200, "live/ship mode: source statements per second")
		runFor     = flag.Duration("duration", 0, "live/serve/ship mode: stop after this long (0 = run until interrupted)")
		serve      = flag.Bool("serve", false, "run the replication server: accept shippers on -listen, apply under -out")
		listen     = flag.String("listen", "127.0.0.1:0", "serve mode: replication listen address")
		ship       = flag.String("ship", "", "run a replication shipper against this server address, capturing under -src")
		source     = flag.String("source", "src-1", "ship/live mode: source id announced to the server")
		truncLog   = flag.Bool("truncatelog", false, "ship mode: truncate the op log at its head on startup, forcing a fresh replica to snapshot-bootstrap")
		chunkRows  = flag.Int("chunkrows", 128, "ship/live mode: rows per snapshot bootstrap chunk")
		chunkDelay = flag.Duration("chunkdelay", 0, "ship mode: pause between snapshot bootstrap chunks (paces bootstrap against live traffic)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof profiles under /debug/pprof/ on the metrics address")
		traceSmpl  = flag.Int("tracesample", 1, "serve/ship/live mode: head-sample one in N replication traces by trace ID (0 disables span tracing)")
		slowSpan   = flag.Duration("slowspan", 0, "serve/live mode: log a per-stage breakdown for traces whose end-to-end lag exceeds this (0 = off)")
		faultDelay = flag.Float64("faultdelayprob", 0, "ship mode: probability of delaying each outgoing frame through an injected fault link (testing)")
		faultMax   = flag.Duration("faultmaxdelay", 2*time.Millisecond, "ship mode: maximum injected per-frame delay")
	)
	flag.Parse()
	diag := diagOpts{pprof: *pprofOn, traceSample: *traceSmpl, slowSpan: *slowSpan}
	if *serve {
		if *outDir == "" {
			flag.Usage()
			os.Exit(2)
		}
		if err := runServe(*listen, *outDir, *metrics, *runFor, diag); err != nil {
			fatal(err)
		}
		return
	}
	if *ship != "" {
		if *srcDir == "" {
			flag.Usage()
			os.Exit(2)
		}
		o := shipOpts{srcDir: *srcDir, source: *source, rate: *loadgen, chunkRows: *chunkRows,
			chunkDelay: *chunkDelay, truncate: *truncLog, faultDelayProb: *faultDelay, faultMaxDelay: *faultMax}
		if err := runShip(*ship, *metrics, o, *runFor, diag); err != nil {
			fatal(err)
		}
		return
	}
	if *srcDir == "" || *outDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *live {
		o := shipOpts{srcDir: *srcDir, source: *source, rate: *loadgen, chunkRows: *chunkRows}
		if err := runLive(*outDir, *metrics, o, *runFor, diag); err != nil {
			fatal(err)
		}
		return
	}
	if *metrics != "" {
		if _, err := serveObs(*metrics, obs.Default(), nil, nil, diag.pprof); err != nil {
			fatal(err)
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	db, err := engine.Open(*srcDir, engine.Options{Obs: obs.Default(), ObsDB: "src"})
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	for {
		n, out, err := runPass(db, *method, *table, *outDir, *window, *archive)
		if err != nil {
			fatal(err)
		}
		if n > 0 {
			fmt.Printf("%s: extracted %d deltas via %s -> %s\n", *table, n, *method, out)
		} else {
			fmt.Printf("%s: no changes\n", *table)
		}
		if *watch <= 0 {
			return
		}
		time.Sleep(*watch)
	}
}

// cursor files persist each method's extraction position across runs.
func cursorPath(outDir, method, table string) string {
	return filepath.Join(outDir, fmt.Sprintf("%s.%s.cursor", table, method))
}

func loadCursor(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
}

func saveCursor(path string, v uint64) error {
	return os.WriteFile(path, []byte(strconv.FormatUint(v, 10)), 0o644)
}

// nextOutputPath allocates the next numbered delta file.
func nextOutputPath(outDir, table, ext string) (string, error) {
	for seq := 1; ; seq++ {
		path := filepath.Join(outDir, fmt.Sprintf("%s.%06d.%s", table, seq, ext))
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			return path, nil
		} else if err != nil {
			return "", err
		}
	}
}

func runPass(db *engine.DB, method, table, outDir string, window int, archive bool) (int, string, error) {
	tbl, err := db.Table(table)
	if err != nil {
		return 0, "", err
	}
	switch method {
	case "timestamp":
		cpath := cursorPath(outDir, method, table)
		cur, err := loadCursor(cpath)
		if err != nil {
			return 0, "", err
		}
		ex := &extract.TimestampExtractor{DB: db, Table: table, Since: time.Unix(0, int64(cur))}
		n, out, err := extractToFile(ex, tbl.Schema, outDir, table)
		if err != nil {
			return 0, "", err
		}
		return n, out, saveCursor(cpath, uint64(ex.Since.UnixNano()))
	case "trigger":
		sink, err := extract.EnsureDeltaTable(db, table)
		if err != nil {
			return 0, "", err
		}
		out, err := nextOutputPath(outDir, table, "delta")
		if err != nil {
			return 0, "", err
		}
		fs, err := extract.NewFileSink(out, tbl.Schema)
		if err != nil {
			return 0, "", err
		}
		n, err := sink.Drain(fs)
		if err != nil {
			fs.Close()
			return 0, "", err
		}
		if err := fs.Close(); err != nil {
			return 0, "", err
		}
		if n == 0 {
			os.Remove(out)
		}
		return n, out, nil
	case "log":
		dir := db.WALDir()
		if archive {
			dir = db.ArchiveDir()
		}
		cpath := cursorPath(outDir, method, table)
		cur, err := loadCursor(cpath)
		if err != nil {
			return 0, "", err
		}
		miner := &extract.LogMiner{Dir: dir, FromLSN: wal.LSN(cur),
			Schemas: map[string]*catalog.Schema{table: tbl.Schema}}
		n, out, err := extractToFile(miner, tbl.Schema, outDir, table)
		if err != nil {
			return 0, "", err
		}
		return n, out, saveCursor(cpath, uint64(miner.FromLSN))
	case "snapshot":
		ex := &extract.SnapshotExtractor{DB: db, Table: table, Dir: outDir, WindowRows: window}
		// Snapshot rotation state lives in the out dir; a previous
		// snapshot marks a warm cursor.
		if _, err := os.Stat(filepath.Join(outDir, table+".prev.snap")); err == nil {
			ex.PrimeFromExisting()
		}
		return extractToFile(ex, tbl.Schema, outDir, table)
	case "opdelta":
		log, err := opdelta.NewTableLog(db)
		if err != nil {
			return 0, "", err
		}
		cpath := cursorPath(outDir, method, table)
		cur, err := loadCursor(cpath)
		if err != nil {
			return 0, "", err
		}
		ops, err := log.Read(cur)
		if err != nil {
			return 0, "", err
		}
		if len(ops) == 0 {
			return 0, "", nil
		}
		out, err := nextOutputPath(outDir, table, "ops")
		if err != nil {
			return 0, "", err
		}
		if err := writeOpsFile(out, ops, tbl.Schema); err != nil {
			return 0, "", err
		}
		return len(ops), out, saveCursor(cpath, ops[len(ops)-1].Seq)
	default:
		return 0, "", fmt.Errorf("unknown method %q", method)
	}
}

func extractToFile(ex extract.Extractor, schema *catalog.Schema, outDir, table string) (int, string, error) {
	out, err := nextOutputPath(outDir, table, "delta")
	if err != nil {
		return 0, "", err
	}
	fs, err := extract.NewFileSink(out, schema)
	if err != nil {
		return 0, "", err
	}
	n, err := ex.Extract(fs)
	if err != nil {
		fs.Close()
		return 0, "", err
	}
	if err := fs.Close(); err != nil {
		return 0, "", err
	}
	if n == 0 {
		os.Remove(out)
	}
	return n, out, nil
}

// writeOpsFile serializes ops in the FileLog framing so dwctl apply-ops
// can read them back.
func writeOpsFile(path string, ops []*opdelta.Op, schema *catalog.Schema) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, op := range ops {
		payload, err := op.Encode(nil, schema)
		if err != nil {
			f.Close()
			return err
		}
		var hdr [4]byte
		hdr[0] = byte(len(payload))
		hdr[1] = byte(len(payload) >> 8)
		hdr[2] = byte(len(payload) >> 16)
		hdr[3] = byte(len(payload) >> 24)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return err
		}
		if _, err := f.Write(payload); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "opdeltad:", err)
	os.Exit(1)
}
