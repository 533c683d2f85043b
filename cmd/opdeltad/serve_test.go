package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/keyset"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/warehouse"
)

// buildDaemon compiles the daemon binary once per test into its own
// temp dir (the go build cache makes repeats cheap).
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "opdeltad")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// proc wraps a daemon process whose stdout lines drive the test:
// resolved metrics/listen addresses are parsed from them and the drain
// summaries assert clean exits.
type proc struct {
	t    *testing.T
	name string
	cmd  *exec.Cmd
	out  chan string
	done chan error
}

func startProc(t *testing.T, name, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{t: t, name: name, cmd: cmd, out: make(chan string, 256), done: make(chan error, 1)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case p.out <- sc.Text():
			default: // never block the child on a full channel
			}
		}
		p.done <- cmd.Wait()
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
		}
	})
	return p
}

// expectLine returns the next stdout line containing substr.
func (p *proc) expectLine(substr string, timeout time.Duration) string {
	p.t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line := <-p.out:
			if strings.Contains(line, substr) {
				return line
			}
		case err := <-p.done:
			p.t.Fatalf("%s exited (%v) before printing %q", p.name, err, substr)
		case <-deadline:
			p.t.Fatalf("%s: no line containing %q within %v", p.name, substr, timeout)
		}
	}
}

// metricsURL parses the resolved /metrics base URL the daemon prints
// as its first line when started with -metrics 127.0.0.1:0.
func (p *proc) metricsURL() string {
	p.t.Helper()
	line := p.expectLine("http://", 10*time.Second)
	i := strings.Index(line, "http://")
	return strings.TrimSuffix(strings.Fields(line[i:])[0], "/metrics")
}

func (p *proc) kill9() {
	p.t.Helper()
	p.cmd.Process.Kill()
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.t.Fatalf("%s did not die after SIGKILL", p.name)
	}
}

// drain sends SIGTERM and requires a clean (exit 0) shutdown.
func (p *proc) drain(timeout time.Duration) {
	p.t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		if err != nil {
			p.t.Fatalf("%s: unclean exit after SIGTERM: %v", p.name, err)
		}
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		p.t.Fatalf("%s did not drain within %v of SIGTERM", p.name, timeout)
	}
}

func scrape(base string) ([]byte, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// waitMetric polls base until the named sample satisfies ok, returning
// the last scrape body.
func waitMetric(t *testing.T, base, name string, cond func(float64) bool, timeout time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var body []byte
	for time.Now().Before(deadline) {
		b, err := scrape(base)
		if err == nil {
			body = b
			if v, ok := sampleValue(b, name); ok && cond(v) {
				return b
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("metric %s never satisfied condition; last scrape:\n%s", name, body)
	return nil
}

// partsSnapshot reads the parts table as pk -> non-timestamp column
// values. The timestamp column is excluded because each engine stamps
// it with its own wall clock at execution time, so source and replica
// legitimately differ there. Duplicate primary keys fail the test —
// that is the visible symptom of a redelivered op applied twice.
func partsSnapshot(t *testing.T, db *engine.DB) map[string]string {
	t.Helper()
	tbl, err := db.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	pkIdx, _ := tbl.Schema.ColIndex("part_id")
	tsIdx, _ := tbl.Schema.ColIndex("last_modified")
	rows := make(map[string]string)
	err = db.ScanTable(nil, "parts", func(row catalog.Tuple) error {
		cols := make([]string, 0, len(row))
		for i, v := range row {
			if i == tsIdx {
				continue
			}
			cols = append(cols, fmt.Sprint(v))
		}
		key := fmt.Sprint(row[pkIdx])
		if _, dup := rows[key]; dup {
			t.Errorf("duplicate primary key %s in replica", key)
		}
		rows[key] = strings.Join(cols, "|")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// verifyReplica proves the exactly-once contract after both processes
// have exited: the warehouse's applied log must cover at least the seq
// the shipper reported acked, and the replica's rows must equal an
// in-process replay of the source op log truncated at exactly that
// applied seq — any lost op, duplicate apply, or reordering shows up
// as a row difference.
func verifyReplica(t *testing.T, srcDir, whDir string, ackedReported uint64) {
	t.Helper()

	wh, err := engine.Open(whDir, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	applied, err := warehouse.EnsureAppliedLog(warehouse.New(wh))
	if err != nil {
		t.Fatal(err)
	}
	maxApplied, err := applied.MaxSeq()
	if err != nil {
		t.Fatal(err)
	}
	// The server acks enqueue durability; apply catches up by drain time.
	if maxApplied < ackedReported {
		t.Fatalf("warehouse applied through seq %d < shipper-acked seq %d", maxApplied, ackedReported)
	}
	got := partsSnapshot(t, wh)

	src, err := engine.Open(srcDir, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	oplog, err := opdelta.NewTableLog(src)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := oplog.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	srcTbl, err := src.Table("parts")
	if err != nil {
		t.Fatal(err)
	}

	refDB, err := engine.Open(filepath.Join(t.TempDir(), "ref"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer refDB.Close()
	refWH := warehouse.New(refDB)
	if err := refWH.RegisterReplica("parts", srcTbl.Schema, "part_id", "last_modified"); err != nil {
		t.Fatal(err)
	}
	integ := &warehouse.ParallelIntegrator{W: refWH, Workers: 2}
	var batch []*opdelta.Op
	replayed := 0
	for _, op := range ops {
		if op.Seq > maxApplied {
			break
		}
		batch = append(batch, op)
		replayed++
		if len(batch) == 256 {
			if _, err := integ.Apply(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := integ.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	if replayed == 0 {
		t.Fatal("reference replay covered zero ops")
	}
	want := partsSnapshot(t, refDB)

	if len(got) != len(want) {
		t.Errorf("replica has %d rows, reference replay of %d ops has %d", len(got), replayed, len(want))
	}
	for pk, w := range want {
		if g, ok := got[pk]; !ok {
			t.Errorf("replica lost row pk=%s (%s)", pk, w)
		} else if g != w {
			t.Errorf("replica row pk=%s = %q, want %q", pk, g, w)
		}
	}
	for pk, g := range got {
		if _, ok := want[pk]; !ok {
			t.Errorf("replica has extra row pk=%s (%s)", pk, g)
		}
	}
}

// ackedSeq parses the shipper's drain summary line.
func ackedSeq(t *testing.T, line string) uint64 {
	t.Helper()
	var n uint64
	if _, err := fmt.Sscanf(line[strings.Index(line, "acked seq"):], "acked seq %d", &n); err != nil {
		t.Fatalf("cannot parse acked seq from %q: %v", line, err)
	}
	return n
}

// TestServeShipMetricsScrape is the CI gate for the networked pair: a
// replication server and two source shippers run as separate
// processes, the server /metrics must expose per-source apply and
// freshness-lag series and the shipper /metrics the reconnect/retry/
// redelivery/in-flight window series, and after a graceful drain each
// source's replica must match an exact replay of its op log.
func TestServeShipMetricsScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns daemon binaries")
	}
	bin := buildDaemon(t)
	work := t.TempDir()

	srv := startProc(t, "serve", bin,
		"-serve", "-out", filepath.Join(work, "out"),
		"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
		"-duration", "2m")
	srvMetrics := srv.metricsURL()
	listenLine := srv.expectLine("listening on", 10*time.Second)
	addr := listenLine[strings.Index(listenLine, "listening on ")+len("listening on "):]

	ships := make([]*proc, 2)
	shipMetrics := make([]string, 2)
	for i, source := range []string{"src-a", "src-b"} {
		ships[i] = startProc(t, "ship-"+source, bin,
			"-ship", addr, "-src", filepath.Join(work, source),
			"-source", source, "-metrics", "127.0.0.1:0",
			"-loadgen", "500", "-duration", "2m")
		shipMetrics[i] = ships[i].metricsURL()
	}

	// Both sources must flow end to end: enqueued on the server, applied
	// into per-source warehouses, freshness lag live.
	for _, source := range []string{"src-a", "src-b"} {
		waitMetric(t, srvMetrics,
			fmt.Sprintf("netrepl_applied_ops_total{source=%q}", source),
			func(v float64) bool { return v >= 20 }, 20*time.Second)
	}
	body, err := scrape(srvMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("malformed server exposition: %v", err)
	}
	for _, name := range []string{
		"netrepl_server_enqueued_ops_total",
		"netrepl_server_connects_total",
		`netrepl_server_last_seq{source="src-a"}`,
		`netrepl_server_last_seq{source="src-b"}`,
	} {
		if v, ok := sampleValue(body, name); !ok || v <= 0 {
			t.Errorf("server series %s = %v (present=%v), want > 0", name, v, ok)
		}
	}
	for _, source := range []string{"src-a", "src-b"} {
		name := fmt.Sprintf("netrepl_replication_lag_ns{source=%q}", source)
		if _, ok := sampleValue(body, name); !ok {
			t.Errorf("server series %s missing", name)
		}
	}

	for i, source := range []string{"src-a", "src-b"} {
		b, err := scrape(shipMetrics[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateExposition(b); err != nil {
			t.Fatalf("malformed shipper exposition: %v", err)
		}
		// Counters that stay zero on a healthy run must still be exposed.
		for _, name := range []string{
			fmt.Sprintf("netrepl_shipper_reconnects_total{source=%q}", source),
			fmt.Sprintf("netrepl_shipper_retries_total{source=%q}", source),
			fmt.Sprintf("netrepl_shipper_redelivered_ops_total{source=%q}", source),
			fmt.Sprintf("netrepl_shipper_inflight_batches{source=%q}", source),
		} {
			if _, ok := sampleValue(b, name); !ok {
				t.Errorf("shipper series %s missing", name)
			}
		}
		for _, name := range []string{
			fmt.Sprintf("netrepl_shipper_ops_sent_total{source=%q}", source),
			fmt.Sprintf("netrepl_shipper_acked_seq{source=%q}", source),
		} {
			if v, ok := sampleValue(b, name); !ok || v <= 0 {
				t.Errorf("shipper series %s = %v (present=%v), want > 0", name, v, ok)
			}
		}
	}

	// Graceful drain: shippers first (they flush their windows), then the
	// server (appliers drain every enqueued op before exit).
	acked := make([]uint64, 2)
	for i := range ships {
		ships[i].drain(15 * time.Second)
		acked[i] = ackedSeq(t, ships[i].expectLine("drained at acked seq", time.Second))
	}
	srv.drain(15 * time.Second)
	srv.expectLine("2 source(s) closed", time.Second)

	for i, source := range []string{"src-a", "src-b"} {
		verifyReplica(t, filepath.Join(work, source), filepath.Join(work, "out", "wh-"+source), acked[i])
	}
}

// spanzDump mirrors the /debug/spanz JSON document.
type spanzDump struct {
	Traces []struct {
		TraceID string `json:"trace_id"`
		Source  string `json:"source"`
		Seq     uint64 `json:"seq"`
		Spans   []struct {
			SpanID   string `json:"span_id"`
			ParentID string `json:"parent_id"`
			Name     string `json:"name"`
		} `json:"spans"`
	} `json:"traces"`
	Slow []struct {
		TraceID string `json:"trace_id"`
		LagNs   int64  `json:"e2e_lag_ns"`
	} `json:"slow"`
}

func fetchSpanz(t *testing.T, base string) spanzDump {
	t.Helper()
	resp, err := http.Get(base + "/debug/spanz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d spanzDump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatalf("decode /debug/spanz: %v", err)
	}
	return d
}

// spanNames collapses a trace's spans to a name set.
func spanNames(spans []struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id"`
	Name     string `json:"name"`
}) map[string]bool {
	names := make(map[string]bool, len(spans))
	for _, s := range spans {
		names[s.Name] = true
	}
	return names
}

// TestServeShipTracing is the tracing acceptance run: a server and a
// shipper as separate processes with tracing on. A 1µs -slowspan
// threshold, which every trace's end-to-end latency exceeds even on
// loopback, must fire the slow-span path (slow-span log line +
// spans_slow_total), the two /debug/spanz rings must join on
// trace ID into a complete cross-process chain (capture/ship on the
// shipper, persist/queue/apply/durable on the server), the server must
// expose raw + skew-corrected replication lag series, and every server
// lifecycle must carry its enqueue stamp in pipeline order.
func TestServeShipTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns daemon binaries")
	}
	bin := buildDaemon(t)
	work := t.TempDir()

	srv := startProc(t, "serve", bin,
		"-serve", "-out", filepath.Join(work, "out"),
		"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
		"-tracesample", "1", "-slowspan", "1us", "-pprof",
		"-duration", "2m")
	srvMetrics := srv.metricsURL()
	listenLine := srv.expectLine("listening on", 10*time.Second)
	addr := listenLine[strings.Index(listenLine, "listening on ")+len("listening on "):]

	ship := startProc(t, "ship", bin,
		"-ship", addr, "-src", filepath.Join(work, "src"),
		"-source", "src-a", "-metrics", "127.0.0.1:0",
		"-loadgen", "200", "-tracesample", "1",
		"-duration", "2m")
	shipMetrics := ship.metricsURL()
	ship.expectLine("shipping source", 10*time.Second)

	// Ops must flow end to end, and every trace's end-to-end latency
	// must exceed the 1µs threshold.
	waitMetric(t, srvMetrics, `netrepl_applied_ops_total{source="src-a"}`,
		func(v float64) bool { return v >= 20 }, 30*time.Second)
	waitMetric(t, srvMetrics, "spans_slow_total",
		func(v float64) bool { return v >= 1 }, 30*time.Second)
	srv.expectLine("slow trace", 10*time.Second)

	// The lag instruments: raw and skew-corrected histograms (all three
	// exposition series each) plus the corrected-lag gauge.
	body := waitMetric(t, srvMetrics, `netrepl_replication_lag_seconds_count{source="src-a"}`,
		func(v float64) bool { return v >= 1 }, 20*time.Second)
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("malformed server exposition: %v", err)
	}
	for _, name := range []string{
		`netrepl_replication_lag_seconds_sum{source="src-a"}`,
		`netrepl_replication_lag_raw_seconds_sum{source="src-a"}`,
		`netrepl_replication_lag_raw_seconds_count{source="src-a"}`,
		`netrepl_replication_lag_ns{source="src-a"}`,
	} {
		if _, ok := sampleValue(body, name); !ok {
			t.Errorf("server series %s missing", name)
		}
	}

	// Join the two processes' span rings on trace ID: at least one trace
	// must be complete across the wire — capture+ship recorded by the
	// shipper, persist+queue+apply+durable by the server, with the
	// persist span parented on the shipper's wire span.
	serverStages := []string{"persist", "queue", "apply", "durable"}
	var joined bool
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && !joined {
		srvDump := fetchSpanz(t, srvMetrics)
		shipDump := fetchSpanz(t, shipMetrics)
		shipTraces := make(map[string]map[string]bool)
		for _, tr := range shipDump.Traces {
			shipTraces[tr.TraceID] = spanNames(tr.Spans)
		}
		for _, tr := range srvDump.Traces {
			names := spanNames(tr.Spans)
			complete := true
			for _, stage := range serverStages {
				complete = complete && names[stage]
			}
			remote := shipTraces[tr.TraceID]
			if complete && remote["capture"] && remote["ship"] && tr.Source == "src-a" {
				joined = true
				break
			}
		}
		if !joined {
			time.Sleep(200 * time.Millisecond)
		}
	}
	if !joined {
		t.Error("no trace joined across both /debug/spanz rings with a complete capture/ship + persist/queue/apply/durable chain")
	}

	// The slow ring must carry breakdowns, and the human-readable tree
	// and pprof endpoints must both serve.
	srvDump := fetchSpanz(t, srvMetrics)
	if len(srvDump.Slow) == 0 {
		t.Error("server /debug/spanz slow ring empty despite spans_slow_total >= 1")
	}
	for _, url := range []string{
		srvMetrics + "/debug/spanz?format=tree",
		srvMetrics + "/debug/pprof/cmdline",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", url, resp.StatusCode)
		}
	}

	// The applier stamps every op's enqueue time from its batch mark, so
	// each server lifecycle is complete and the queue stage is observed.
	resp, err := http.Get(srvMetrics + "/debug/deltaz?n=128")
	if err != nil {
		t.Fatal(err)
	}
	var dz struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(dz.Traces) == 0 {
		t.Fatal("server /debug/deltaz returned no traces")
	}
	for _, tr := range dz.Traces {
		assertMonotoneTrace(t, tr)
	}
	body, err = scrape(srvMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sampleValue(body, `delta_stage_seconds_count{stage="queue"}`); !ok || v <= 0 {
		t.Errorf(`delta_stage_seconds_count{stage="queue"} = %v (present=%v), want > 0`, v, ok)
	}

	// Exactly-once still holds through the delayed link.
	ship.drain(30 * time.Second)
	acked := ackedSeq(t, ship.expectLine("drained at acked seq", time.Second))
	srv.drain(15 * time.Second)
	verifyReplica(t, filepath.Join(work, "src"), filepath.Join(work, "out", "wh-src-a"), acked)
}

// TestServeShipKill9Resume proves the acceptance criterion directly:
// kill -9 the shipper mid-stream and restart it, then kill -9 the
// server mid-stream and restart it; both restarts must resume from the
// last acked durable LSN, the surviving shipper must reconnect on its
// own, and after a final graceful drain the replica must equal an
// exact replay of the source op log — nothing lost, nothing doubled.
func TestServeShipKill9Resume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns daemon binaries")
	}
	bin := buildDaemon(t)
	work := t.TempDir()
	outDir := filepath.Join(work, "out")
	srcDir := filepath.Join(work, "src")

	startServer := func(listen string) (*proc, string, string) {
		p := startProc(t, "serve", bin,
			"-serve", "-out", outDir,
			"-listen", listen, "-metrics", "127.0.0.1:0",
			"-duration", "2m")
		metrics := p.metricsURL()
		line := p.expectLine("listening on", 10*time.Second)
		return p, metrics, line[strings.Index(line, "listening on ")+len("listening on "):]
	}
	startShipper := func(addr string) (*proc, string) {
		p := startProc(t, "ship", bin,
			"-ship", addr, "-src", srcDir, "-source", "src-a",
			"-metrics", "127.0.0.1:0", "-loadgen", "500", "-duration", "2m")
		return p, p.metricsURL()
	}

	srv, srvMetrics, addr := startServer("127.0.0.1:0")
	ship, _ := startShipper(addr)

	lastSeq := `netrepl_server_last_seq{source="src-a"}`

	// Phase 1: let the stream establish, then kill -9 the shipper.
	waitMetric(t, srvMetrics, lastSeq, func(v float64) bool { return v >= 50 }, 20*time.Second)
	ship.kill9()
	b, err := scrape(srvMetrics)
	if err != nil {
		t.Fatal(err)
	}
	seqAtShipKill, _ := sampleValue(b, lastSeq)

	// Phase 2: a fresh shipper process resumes from the server's WELCOME
	// watermark and the stream advances past where it died.
	ship, shipMetrics := startShipper(addr)
	waitMetric(t, srvMetrics, lastSeq,
		func(v float64) bool { return v >= seqAtShipKill+50 }, 20*time.Second)

	// Phase 3: kill -9 the server mid-stream. The shipper survives on
	// its retry loop; a restarted server recovers its topics from disk at
	// (at least) the killed server's watermark and the shipper reconnects
	// without losing its stream position.
	srv.kill9()
	b, err = scrape(shipMetrics)
	if err != nil {
		t.Fatal(err)
	}
	ackedAtSrvKill, _ := sampleValue(b, `netrepl_shipper_acked_seq{source="src-a"}`)

	srv, srvMetrics2, _ := startServer(addr) // rebind the same address
	body := waitMetric(t, srvMetrics2, lastSeq,
		func(v float64) bool { return v >= ackedAtSrvKill+50 }, 30*time.Second)
	if v, ok := sampleValue(body, lastSeq); !ok || v < ackedAtSrvKill {
		t.Fatalf("restarted server recovered seq %v < acked %v at kill time", v, ackedAtSrvKill)
	}
	b = waitMetric(t, shipMetrics, `netrepl_shipper_reconnects_total{source="src-a"}`,
		func(v float64) bool { return v >= 1 }, 20*time.Second)
	if v, ok := sampleValue(b, `netrepl_shipper_retries_total{source="src-a"}`); !ok || v < 1 {
		t.Errorf("shipper retries = %v (present=%v), want >= 1 after server kill", v, ok)
	}

	// Final drain and the exactly-once ledger check.
	ship.drain(15 * time.Second)
	acked := ackedSeq(t, ship.expectLine("drained at acked seq", time.Second))
	if acked < uint64(ackedAtSrvKill) {
		t.Errorf("final acked seq %d regressed below %v (acked before server kill)", acked, ackedAtSrvKill)
	}
	srv.drain(15 * time.Second)
	verifyReplica(t, srcDir, filepath.Join(outDir, "wh-src-a"), acked)
}

// partsByPK reads the parts table as part_id -> non-timestamp column
// values, for source/replica comparison keyed by integer PK.
func partsByPK(t *testing.T, db *engine.DB) map[int64]string {
	t.Helper()
	tbl, err := db.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	pkIdx, _ := tbl.Schema.ColIndex("part_id")
	tsIdx, _ := tbl.Schema.ColIndex("last_modified")
	rows := make(map[int64]string)
	if err := db.ScanTable(nil, "parts", func(row catalog.Tuple) error {
		cols := make([]string, 0, len(row))
		for i, v := range row {
			if i == tsIdx {
				continue
			}
			cols = append(cols, fmt.Sprint(v))
		}
		rows[row[pkIdx].Int()] = strings.Join(cols, "|")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestServeBootstrapKill9Resume is the bootstrap resume scenario: a
// shipper whose op log was truncated at its head forces a fresh replica
// through snapshot bootstrap; the server (the replica side) is killed
// -9 mid-bootstrap, and its restart must resume from the durable
// BootstrapLog — completing the run without re-fetching finished chunks
// (visible as the restarted server's netrepl_bootstrap_chunks_total
// staying well below the table's full chunk count) — and end with the
// replica matching the live source.
func TestServeBootstrapKill9Resume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns daemon binaries")
	}
	bin := buildDaemon(t)
	work := t.TempDir()
	srcDir := filepath.Join(work, "src")
	outDir := filepath.Join(work, "out")

	startServer := func(out, listen string) (*proc, string, string) {
		p := startProc(t, "serve", bin, "-serve", "-out", out,
			"-listen", listen, "-metrics", "127.0.0.1:0", "-duration", "2m")
		metrics := p.metricsURL()
		line := p.expectLine("listening on", 10*time.Second)
		return p, metrics, line[strings.Index(line, "listening on ")+len("listening on "):]
	}

	// Phase 0: build real source history against a throwaway replica, so
	// the truncated log leaves state only a snapshot can recover.
	srv0, m0, addr0 := startServer(filepath.Join(work, "out0"), "127.0.0.1:0")
	ship0 := startProc(t, "ship0", bin, "-ship", addr0, "-src", srcDir,
		"-source", "src-a", "-loadgen", "500", "-duration", "2m")
	waitMetric(t, m0, `netrepl_server_last_seq{source="src-a"}`,
		func(v float64) bool { return v >= 150 }, 20*time.Second)
	ship0.drain(15 * time.Second)
	srv0.drain(15 * time.Second)

	// Phase 1: fresh replica; the truncated log forces ModeBootstrap.
	// One-row chunks paced 20ms apart keep the bootstrap window long
	// enough to kill into, with the live workload trickling on.
	srv1, m1, addr := startServer(outDir, "127.0.0.1:0")
	ship := startProc(t, "ship", bin, "-ship", addr, "-src", srcDir, "-source", "src-a",
		"-truncatelog", "-chunkrows", "1", "-chunkdelay", "20ms", "-loadgen", "1", "-duration", "2m")
	ship.expectLine("op log truncated", 10*time.Second)
	chunksName := `netrepl_bootstrap_chunks_total{source="src-a"}`
	waitMetric(t, m1, chunksName, func(v float64) bool { return v >= 30 }, 30*time.Second)
	srv1.kill9()

	// The killed server's progress must be durable and mid-table.
	whDir := filepath.Join(outDir, "wh-src-a")
	k1 := func() int64 {
		db, err := engine.Open(whDir, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		blog, err := warehouse.EnsureBootstrapLog(warehouse.New(db))
		if err != nil {
			t.Fatal(err)
		}
		meta, err := blog.Meta()
		if err != nil {
			t.Fatal(err)
		}
		if !meta.Exists || meta.Done {
			t.Fatalf("bootstrap meta after kill = %+v, want an unfinished run", meta)
		}
		prog, err := blog.Progress()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range prog {
			if p.Table != "parts" {
				continue
			}
			if p.Done || len(p.LastKey) == 0 {
				t.Fatalf("parts progress after kill = %+v, want mid-table", p)
			}
			tbl, err := db.Table("parts")
			if err != nil {
				t.Fatal(err)
			}
			v, err := opdelta.NewKeyCodec(tbl.Schema.Column(tbl.PKCol)).Decode(p.LastKey)
			if err != nil {
				t.Fatal(err)
			}
			return v.Int()
		}
		t.Fatal("no durable bootstrap progress for parts after kill -9")
		return 0
	}()
	t.Logf("killed mid-bootstrap with durable progress through part_id %d", k1)

	// Phase 2: restart the replica on the same address. The shipper
	// reconnects on its own; the handshake resumes the run from the
	// durable progress and finishes it.
	srv2, m2, _ := startServer(outDir, addr)
	waitMetric(t, m2, chunksName, func(v float64) bool { return v >= 1 }, 30*time.Second)
	waitMetric(t, m2, `netrepl_bootstrap_active{source="src-a"}`,
		func(v float64) bool { return v == 0 }, 60*time.Second)
	body, err := scrape(m2)
	if err != nil {
		t.Fatal(err)
	}
	c2, ok := sampleValue(body, chunksName)
	if !ok {
		t.Fatalf("no %s after resume; scrape:\n%s", chunksName, body)
	}

	ship.drain(15 * time.Second)
	acked := ackedSeq(t, ship.expectLine("drained at acked seq", time.Second))
	srv2.drain(15 * time.Second)

	// No re-fetch: the restarted server's chunk count must be bounded by
	// the rows ABOVE the durable progress key (plus slack for live
	// inserts and chases) — re-reading the finished prefix would blow
	// well past it.
	src, err := engine.Open(srcDir, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	wh, err := engine.Open(whDir, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	whRows := partsByPK(t, wh)
	nBelow := 0
	for pk := range whRows {
		if pk <= k1 {
			nBelow++
		}
	}
	if nBelow < 10 {
		t.Fatalf("only %d replica rows at or below the kill-time progress key %d; the kill landed too early to prove resume", nBelow, k1)
	}
	if c2 > float64(len(whRows)-nBelow+15) {
		t.Errorf("restarted server applied %.0f chunks for %d remaining rows (%d total, %d already finished); it re-fetched finished chunks",
			c2, len(whRows)-nBelow, len(whRows), nBelow)
	}

	// Replica equals the source everywhere except keys touched by the
	// few trailing ops captured after the shipper's final fetch (they
	// are still in the op log above the acked seq — exclude exactly
	// their statement footprints).
	oplog, err := opdelta.NewTableLog(src)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := oplog.Read(acked)
	if err != nil {
		t.Fatal(err)
	}
	srcTbl, err := src.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	var tailFps []keyset.Footprint
	for _, op := range tail {
		fp := keyset.WholeTable()
		if stmt, err := op.Statement(); err == nil {
			fp = keyset.StatementFootprint(stmt, srcTbl.Schema, "part_id")
		}
		tailFps = append(tailFps, fp)
	}
	inTail := func(pk int64) bool {
		pt := keyset.Footprint{Ranges: []keyset.KeyRange{keyset.Point(catalog.NewInt(pk))}}
		for _, fp := range tailFps {
			if fp.Overlaps(pt) {
				return true
			}
		}
		return false
	}
	srcRows := partsByPK(t, src)
	mismatches := 0
	for pk, w := range srcRows {
		if inTail(pk) {
			continue
		}
		if g, ok := whRows[pk]; !ok {
			t.Errorf("replica lost row pk=%d (%s)", pk, w)
			mismatches++
		} else if g != w {
			t.Errorf("replica row pk=%d = %q, want %q", pk, g, w)
			mismatches++
		}
	}
	for pk, g := range whRows {
		if _, ok := srcRows[pk]; !ok && !inTail(pk) {
			t.Errorf("replica has extra row pk=%d (%s)", pk, g)
			mismatches++
		}
	}
	if mismatches == 0 {
		t.Logf("replica matches source across %d rows (%d tail ops excluded); resume applied %.0f chunks after %d finished",
			len(srcRows), len(tail), c2, nBelow)
	}
}
