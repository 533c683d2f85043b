package opdelta_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"opdelta"
)

// buildCLIs compiles the command binaries once per test run.
func buildCLIs(t *testing.T) (benchtables, opdeltad, dwctl string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	for _, name := range []string{"benchtables", "opdeltad", "dwctl"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
	}
	return filepath.Join(dir, "benchtables"), filepath.Join(dir, "opdeltad"), filepath.Join(dir, "dwctl")
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

const cliDDL = `CREATE TABLE parts (part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT, last_modified TIMESTAMP) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`

// TestCLIPipeline drives the shipped binaries end to end: seed a source
// with op capture, extract with opdeltad (op-delta and timestamp
// methods), initialize a warehouse with dwctl, apply the ops, query.
func TestCLIPipeline(t *testing.T) {
	_, opdeltad, dwctl := buildCLIs(t)
	work := t.TempDir()
	srcDir := filepath.Join(work, "src")
	outDir := filepath.Join(work, "out")
	whDir := filepath.Join(work, "wh")

	// Seed the source in-process (an application would own this engine).
	src, err := opdelta.Open(srcDir, opdelta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Exec(nil, cliDDL); err != nil {
		t.Fatal(err)
	}
	oplog, err := opdelta.NewTableLog(src)
	if err != nil {
		t.Fatal(err)
	}
	capture := &opdelta.Capture{DB: src, Log: oplog}
	for i := 0; i < 30; i++ {
		if _, err := capture.Exec(nil, fmt.Sprintf(
			`INSERT INTO parts (part_id, status, qty) VALUES (%d, 's%d', %d)`, i, i%3, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := capture.Exec(nil, `UPDATE parts SET status = 'rev' WHERE part_id BETWEEN 5 AND 9`); err != nil {
		t.Fatal(err)
	}
	if _, err := capture.Exec(nil, `DELETE FROM parts WHERE part_id >= 25`); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	// Extract with the daemon: once via op-delta, once via timestamps.
	out := run(t, opdeltad, "-src", srcDir, "-out", outDir, "-table", "parts", "-method", "opdelta")
	if !strings.Contains(out, "extracted 32 deltas") {
		t.Fatalf("opdelta extraction output: %q", out)
	}
	out = run(t, opdeltad, "-src", srcDir, "-out", outDir, "-table", "parts", "-method", "timestamp")
	if !strings.Contains(out, "extracted 25 deltas") { // 30 inserts - 5 deleted survivors... timestamps see live rows only
		t.Fatalf("timestamp extraction output: %q", out)
	}
	// A second pass finds nothing new (cursors persisted).
	out = run(t, opdeltad, "-src", srcDir, "-out", outDir, "-table", "parts", "-method", "opdelta")
	if !strings.Contains(out, "no changes") {
		t.Fatalf("second pass: %q", out)
	}

	// Warehouse: init, apply ops, query.
	run(t, dwctl, "-dir", whDir, "init", "-ddl", cliDDL)
	out = run(t, dwctl, "-dir", whDir, "apply-ops", "-table", "parts",
		"-file", filepath.Join(outDir, "parts.000001.ops"))
	if !strings.Contains(out, "applied 32 ops") {
		t.Fatalf("apply-ops output: %q", out)
	}
	out = run(t, dwctl, "-dir", whDir, "query", "-sql",
		`SELECT COUNT(*), SUM(qty) FROM parts`)
	if !strings.Contains(out, "25") { // 30 - 5 deleted
		t.Fatalf("count query: %q", out)
	}
	out = run(t, dwctl, "-dir", whDir, "query", "-sql",
		`SELECT part_id, status FROM parts WHERE part_id BETWEEN 5 AND 6 ORDER BY part_id`)
	if !strings.Contains(out, "rev") {
		t.Fatalf("revised rows missing: %q", out)
	}
	out = run(t, dwctl, "-dir", whDir, "stats")
	if !strings.Contains(out, "parts") || !strings.Contains(out, "rows=25") {
		t.Fatalf("stats output: %q", out)
	}
}

// TestCLIOpDeltaPerTable: the op log holds every captured table's ops,
// and `opdeltad -method opdelta -table T` must write only T's into its
// op file while its cursor still moves past every op it read, including
// a pass that read none of T's. dwctl must refuse an op file cut inside
// a frame and name the offset where the whole frames end.
func TestCLIOpDeltaPerTable(t *testing.T) {
	_, opdeltad, dwctl := buildCLIs(t)
	work := t.TempDir()
	srcDir := filepath.Join(work, "src")
	outDir := filepath.Join(work, "out")
	whDir := filepath.Join(work, "wh")
	const otherDDL = `CREATE TABLE other (id BIGINT NOT NULL, note VARCHAR) PRIMARY KEY (id)`

	capture := func(stmts ...string) {
		t.Helper()
		src, err := opdelta.Open(srcDir, opdelta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		oplog, err := opdelta.NewTableLog(src)
		if err != nil {
			t.Fatal(err)
		}
		c := &opdelta.Capture{DB: src, Log: oplog}
		for _, stmt := range stmts {
			if _, err := c.Exec(nil, stmt); err != nil {
				t.Fatal(err)
			}
		}
	}
	src, err := opdelta.Open(srcDir, opdelta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{cliDDL, otherDDL} {
		if _, err := src.Exec(nil, ddl); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	capture(
		`INSERT INTO other (id, note) VALUES (1, 'a')`,
		`INSERT INTO parts (part_id, status, qty) VALUES (1, 'new', 10)`,
		`INSERT INTO other (id, note) VALUES (2, 'b')`,
	)

	out := run(t, opdeltad, "-src", srcDir, "-out", outDir, "-table", "parts", "-method", "opdelta")
	if !strings.Contains(out, "parts: extracted 1 deltas") {
		t.Fatalf("parts pass: %q", out)
	}
	cursor := func() string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(outDir, "parts.opdelta.cursor"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if c := cursor(); c != "3" {
		t.Fatalf("parts cursor after the first pass = %q, want 3", c)
	}
	// A pass that reads only other's ops writes no file but still moves
	// the cursor past them.
	capture(`INSERT INTO other (id, note) VALUES (3, 'c')`)
	out = run(t, opdeltad, "-src", srcDir, "-out", outDir, "-table", "parts", "-method", "opdelta")
	if !strings.Contains(out, "parts: no changes") {
		t.Fatalf("parts pass over other's op: %q", out)
	}
	if c := cursor(); c != "4" {
		t.Fatalf("parts cursor after a pass with none of its ops = %q, want 4", c)
	}
	if _, err := os.Stat(filepath.Join(outDir, "parts.000002.ops")); !os.IsNotExist(err) {
		t.Fatalf("a pass with none of the table's ops wrote an op file (stat: %v)", err)
	}
	out = run(t, opdeltad, "-src", srcDir, "-out", outDir, "-table", "other", "-method", "opdelta")
	if !strings.Contains(out, "other: extracted 3 deltas") {
		t.Fatalf("other pass: %q", out)
	}

	run(t, dwctl, "-dir", whDir, "init", "-ddl", cliDDL)
	opsFile := filepath.Join(outDir, "parts.000001.ops")
	out = run(t, dwctl, "-dir", whDir, "apply-ops", "-table", "parts", "-file", opsFile)
	if !strings.Contains(out, "applied 1 ops") {
		t.Fatalf("apply-ops output: %q", out)
	}

	data, err := os.ReadFile(opsFile)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(work, "torn.ops")
	if err := os.WriteFile(torn, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := exec.Command(dwctl, "-dir", whDir, "apply-ops", "-table", "parts", "-file", torn).CombinedOutput()
	if err == nil || !strings.Contains(string(b), "truncated ops file at offset 0") {
		t.Fatalf("apply-ops of a torn file: err=%v output=%q", err, b)
	}
}

// TestCLIValueDeltaPath drives the trigger-capture + apply-deltas path.
func TestCLIValueDeltaPath(t *testing.T) {
	_, opdeltad, dwctl := buildCLIs(t)
	work := t.TempDir()
	srcDir := filepath.Join(work, "src")
	outDir := filepath.Join(work, "out")
	whDir := filepath.Join(work, "wh")

	src, err := opdelta.Open(srcDir, opdelta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Exec(nil, cliDDL); err != nil {
		t.Fatal(err)
	}
	vc := &opdelta.TriggerCapture{DB: src, Table: "parts"}
	if err := vc.Install(); err != nil {
		t.Fatal(err)
	}
	src.Exec(nil, `INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 1), (2, 'b', 2)`)
	src.Exec(nil, `UPDATE parts SET qty = 99 WHERE part_id = 2`)
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	out := run(t, opdeltad, "-src", srcDir, "-out", outDir, "-table", "parts", "-method", "trigger")
	if !strings.Contains(out, "extracted 3 deltas") {
		t.Fatalf("trigger extraction: %q", out)
	}
	run(t, dwctl, "-dir", whDir, "init", "-ddl", cliDDL)
	out = run(t, dwctl, "-dir", whDir, "apply-deltas", "-table", "parts",
		"-file", filepath.Join(outDir, "parts.000001.delta"))
	if !strings.Contains(out, "applied 3 value deltas") {
		t.Fatalf("apply-deltas: %q", out)
	}
	out = run(t, dwctl, "-dir", whDir, "query", "-sql", `SELECT qty FROM parts WHERE part_id = 2`)
	if !strings.Contains(out, "99") {
		t.Fatalf("updated row missing: %q", out)
	}
}
