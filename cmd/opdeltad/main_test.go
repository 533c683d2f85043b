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
	"strconv"
	"strings"
	"testing"
	"time"

	"opdelta/internal/obs"
)

// TestLiveMetricsScrape is the CI scrape gate: it builds the daemon,
// boots the live pipeline with -metrics, scrapes /metrics while the
// integration is running, and fails on malformed exposition lines or on
// any of the acceptance series (freshness lag, queue depth, WAL fsync
// latency, pool hit ratio, lock grants) missing or zero. It also pulls
// /debug/deltaz and asserts every completed lifecycle's timestamps are
// monotone across capture -> enqueue -> dequeue -> lock -> apply ->
// durable.
func TestLiveMetricsScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the daemon binary")
	}
	work := t.TempDir()
	bin := filepath.Join(work, "opdeltad")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-live",
		"-src", filepath.Join(work, "src"),
		"-out", filepath.Join(work, "out"),
		"-metrics", "127.0.0.1:0",
		"-loadgen", "400",
		"-duration", "30s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}()

	// The daemon prints the resolved URL ("-metrics 127.0.0.1:0" picks a
	// free port) as its first line.
	var base string
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		t.Fatal("daemon exited before printing the metrics URL")
	}
	first := lines.Text()
	if i := strings.Index(first, "http://"); i < 0 {
		t.Fatalf("no metrics URL in %q", first)
	} else {
		base = strings.TrimSuffix(strings.Fields(first[i:])[0], "/metrics")
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	// Poll until the pipeline has completed traces, then hold that scrape.
	var body []byte
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no completed traces before deadline; last scrape:\n%s", body)
		}
		time.Sleep(300 * time.Millisecond)
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			continue
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		if v, ok := sampleValue(body, "delta_traces_total"); ok && v > 0 {
			break
		}
	}

	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}

	mustPositive := []string{
		"delta_traces_total",
		"delta_freshness_lag_seconds_count",
		"delta_freshness_lag_seconds_sum",
		"opdelta_captured_total",
		`transport_queue_appends_total{source="src-1"}`,
		`wal_fsync_seconds_count{db="wh-src-1"}`,
		`wal_group_commit_cohort_records_count{db="wh-src-1"}`,
		`txn_lock_grants_total{db="wh-src-1"}`,
		`warehouse_apply_txns_total{integrator="parallel"}`,
		`warehouse_apply_commits_total{integrator="parallel"}`,
	}
	for _, name := range mustPositive {
		v, ok := sampleValue(body, name)
		if !ok {
			t.Errorf("series %s missing from scrape", name)
		} else if v <= 0 {
			t.Errorf("series %s = %v, want > 0", name, v)
		}
	}
	// Source transactions applied, and the warehouse transactions that
	// committed them: a run of single-row ones shares one commit.
	txns, _ := sampleValue(body, `warehouse_apply_txns_total{integrator="parallel"}`)
	if commits, _ := sampleValue(body, `warehouse_apply_commits_total{integrator="parallel"}`); commits > txns {
		t.Errorf("%v warehouse commits for %v source transactions", commits, txns)
	}
	if v, ok := sampleValue(body, `storage_pool_hit_ratio{db="wh-src-1",pool="parts"}`); !ok || v <= 0 {
		t.Errorf("storage_pool_hit_ratio{db=wh-src-1,pool=parts} = %v (present=%v), want > 0", v, ok)
	}
	// What Open's index rebuild built and took is exported per table; a
	// fresh warehouse rebuilt nothing, so only presence is checked here
	// (TestLiveRestartExactlyOnce checks the values after a restart).
	for _, name := range []string{
		`engine_index_rebuild_keys_total{db="wh-src-1",table="parts"}`,
		`engine_index_rebuild_seconds_total{db="wh-src-1",table="parts"}`,
	} {
		if _, ok := sampleValue(body, name); !ok {
			t.Errorf("series %s missing from scrape", name)
		}
	}

	// Every append wakes the applier, which reads the queue at once, so
	// the depth gauge reads 0 at nearly every scrape. Its per-source
	// value is pinned with no applier running by netrepl's
	// TestServerQueueDepthPerSource; here it must be exported under the
	// source's label.
	if _, ok := sampleValue(body, `transport_queue_depth_bytes{source="src-1"}`); !ok {
		t.Error(`series transport_queue_depth_bytes{source="src-1"} missing from scrape`)
	}

	// Every completed lifecycle must be stamped in pipeline order.
	resp, err := http.Get(base + "/debug/deltaz?n=128")
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
		t.Fatal("/debug/deltaz returned no traces")
	}
	for _, tr := range dz.Traces {
		assertMonotoneTrace(t, tr)
	}
}

// TestLiveRestartExactlyOnce runs -live twice over the same -src and
// -out, draining each run with SIGTERM. The second run must reopen the
// first run's topic and warehouse and resume from the server's durable
// seq, and after it the replica must equal an exact replay of the
// source op log through the applied seq: nothing lost, nothing applied
// twice.
func TestLiveRestartExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the daemon binary")
	}
	bin := buildDaemon(t)
	work := t.TempDir()
	srcDir, outDir := filepath.Join(work, "src"), filepath.Join(work, "out")
	var last *proc
	for run := 1; run <= 2; run++ {
		last = startProc(t, fmt.Sprintf("live run %d", run), bin,
			"-live", "-src", srcDir, "-out", outDir,
			"-metrics", "127.0.0.1:0", "-loadgen", "400", "-duration", "2m")
		body := waitMetric(t, last.metricsURL(), "delta_traces_total",
			func(v float64) bool { return v >= 100 }, 20*time.Second)
		if run == 2 {
			// The restart rebuilt the indexes of the rows run 1 wrote.
			for _, name := range []string{
				`engine_index_rebuild_keys_total{db="src",table="parts"}`,
				`engine_index_rebuild_seconds_total{db="src",table="parts"}`,
			} {
				if v, ok := sampleValue(body, name); !ok || v <= 0 {
					t.Errorf("%s = %v (present=%v), want > 0 after a restart", name, v, ok)
				}
			}
		}
		last.drain(15 * time.Second)
	}
	acked := ackedSeq(t, last.expectLine("drained at acked seq", time.Second))
	verifyReplica(t, srcDir, filepath.Join(outDir, "wh-src-1"), acked)
}

// sampleValue finds the sample whose name (with labels, if any) is
// exactly prefix and returns its value.
func sampleValue(body []byte, prefix string) (float64, bool) {
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err == nil {
			return v, true
		}
	}
	return 0, false
}

// assertMonotoneTrace checks the stamped stages of one lifecycle are
// non-decreasing in pipeline order and that freshness covers the whole
// capture->durable span.
func assertMonotoneTrace(t *testing.T, tr obs.TraceRecord) {
	t.Helper()
	stamps := []struct {
		name string
		ns   int64
	}{
		{"captured", tr.Captured},
		{"enqueued", tr.Enqueued},
		{"dequeued", tr.Dequeued},
		{"locked", tr.Locked},
		{"applied", tr.Applied},
		{"durable", tr.Durable},
	}
	prev := stamps[0]
	if prev.ns == 0 {
		t.Errorf("trace seq=%d has no capture stamp", tr.Seq)
		return
	}
	for _, s := range stamps[1:] {
		if s.ns == 0 {
			t.Errorf("trace seq=%d missing %s stamp", tr.Seq, s.name)
			continue
		}
		if s.ns < prev.ns {
			t.Errorf("trace seq=%d: %s (%d) precedes %s (%d)", tr.Seq, s.name, s.ns, prev.name, prev.ns)
		}
		prev = s
	}
	if tr.Durable != 0 {
		want := tr.Durable - tr.Captured
		if want < 0 {
			want = 0
		}
		if tr.FreshnessNs != want {
			t.Errorf("trace seq=%d freshness = %d, want durable-captured = %d", tr.Seq, tr.FreshnessNs, want)
		}
	}
}
