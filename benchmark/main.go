// Command benchmark drives the production replication pipeline —
// Capture → TableLog → netrepl Shipper → TCP → Server topic → Applier →
// ParallelIntegrator — in one process under four named workloads,
// prints every metric by name with its unit, and checks the warehouse
// against the source after every run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// result is one run of one workload.
type result struct {
	workload  string
	seed      int64
	schedHash uint64
	metrics   *metricSet
	decls     []metricDecl // the metric set this run reports
	attempted int
	failed    int
	// problems lists every reason the run is not correct: statement
	// errors, unapplied ops, oracle mismatches.
	problems []string
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// finalLine is the driver's contract: the last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) finalLine() finalLine {
	out := finalLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]finalMetric{}}
	for _, d := range r.decls {
		out.Metrics[d.Name] = finalMetric{Value: r.metrics.values[d.Name], Unit: d.Unit}
	}
	return out
}

func (r *result) print(w io.Writer, mode string) {
	fmt.Fprintf(w, "%s  seed=%d  %s  schedule=%016x\n", r.workload, r.seed, mode, r.schedHash)
	r.metrics.print(w, r.decls)
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", r.attempted, r.failed, r.correct())
	for _, p := range r.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// finish stops the load and turns its outcome into the run's verdict:
// statement and query errors, ops the warehouse never applied, and
// whatever the oracle found. Any of them makes the run incorrect.
func (r *result) finish(st *stack, l *load) error {
	unapplied := l.finish()
	if err := st.stopPipeline(); err != nil {
		r.problems = append(r.problems, "pipeline: "+err.Error())
	}
	r.attempted = max(1, l.issued+len(l.queries))
	for _, err := range []error{l.stmtErr, l.readErr} {
		if err != nil {
			r.failed++
			r.problems = append(r.problems, err.Error())
		}
	}
	if unapplied > 0 {
		r.failed += unapplied
		r.problems = append(r.problems, fmt.Sprintf("%d ops not applied %s after the generator stopped", unapplied, quiesceDeadline))
	}
	bad, err := st.verify()
	if err != nil {
		return err
	}
	r.problems = append(r.problems, bad...)
	return nil
}

func (r *result) failedRatio() float64 {
	if !r.correct() {
		return 1
	}
	return 0
}

// runUntraced measures the end-to-end metrics: tracing off, wrappers
// pass-through.
func runUntraced(spec workloadSpec, cfg runConfig) (*result, error) {
	sched := generate(spec, cfg.seed, cfg.warmup+cfg.window+time.Second)
	res := &result{workload: spec.name, seed: cfg.seed, schedHash: sched.hash, metrics: newMetricSet(), decls: endToEnd}
	st, setupS, err := setUp(spec, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		st.close()
		os.RemoveAll(st.dir)
	}()
	l := st.startLoad(sched)
	win := l.measure(cfg.warmup, cfg.window, false)
	if err := res.finish(st, l); err != nil {
		return nil, err
	}
	endToEndMetrics(res.metrics, l.stats(win), setupS, res.failedRatio())
	return res, nil
}

// runTraced measures the per-layer metrics. The traced window sits
// between two short untraced reference windows of the same continuous
// load: the pipeline is swapped under the running clients, with no
// quiesce in between. Closed-loop throughput drifts as the op log grows,
// and bracketing cancels the drift out of the tracing-overhead estimate.
// The traced window is half of -seconds, so that the three windows
// together take no longer than an untraced run.
func runTraced(spec workloadSpec, cfg runConfig) (*result, error) {
	window := cfg.window / 2
	refWindow, rewarm := window/3, cfg.warmup/4
	// Stopping a pipeline can wait out the shipper's 2 s ack timeout, and
	// the clients run on through both swaps.
	const swapSlack = 3 * time.Second
	total := cfg.warmup + 2*refWindow + 2*rewarm + window + 2*swapSlack
	sched := generate(spec, cfg.seed, total)
	res := &result{workload: spec.name, seed: cfg.seed, schedHash: sched.hash, metrics: newMetricSet(), decls: perLayer}
	cfg.setups = 1 // set-up time is an end-to-end metric; not reported here
	st, _, err := setUp(spec, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		st.close()
		os.RemoveAll(st.dir)
	}()
	swap := func(rec *recorder) error {
		if err := st.stopPipeline(); err != nil {
			return err
		}
		return st.startPipeline(rec, len(sched.stmts))
	}

	l := st.startLoad(sched)
	ref1 := l.measure(cfg.warmup, refWindow, false)
	rec := newRecorder(8 * len(sched.stmts))
	if err := swap(rec); err != nil {
		l.abandon()
		return nil, err
	}
	traced := l.measure(rewarm, window, true)
	pipe := st.pipe
	if err := swap(nil); err != nil {
		l.abandon()
		return nil, err
	}
	lifecycles := pipe.tracer.Recent(0)
	progSpans := pipe.spans.Recent(0)
	ref2 := l.measure(rewarm, refWindow, false)
	if err := res.finish(st, l); err != nil {
		return nil, err
	}

	m := res.metrics
	w := l.stats(traced)
	endToEndMetrics(m, w, 0, res.failedRatio())
	registryMetrics(m, w)
	harnessMetrics(m, l, w, lifecycles, pipe.probes)

	// The op log's cost per op grows with its length, so it is time per
	// op, not ops per time, that drifts linearly: the reference is the
	// mean of the two windows' times per op (the harmonic mean of their
	// throughputs) and of their CPU per op.
	w1, w2 := l.stats(ref1), l.stats(ref2)
	refSecPerOp := (1/w1.opsPerS + 1/w2.opsPerS) / 2
	refCPU := (w1.cpuPerOp + w2.cpuPerOp) / 2
	m.set("harness.trace_overhead_ratio", 1-w.opsPerS*refSecPerOp)
	m.set("harness.trace_cpu_overhead_ratio", ratio(w.cpuPerOp, refCPU)-1)

	rec.addLifecycles(l, traced, lifecycles, pipe.probes)
	tracePath := filepath.Join(cfg.outDir, spec.name+".trace.json")
	if err := rec.writeChromeTrace(tracePath, progSpans); err != nil {
		return nil, err
	}

	captured, err := st.oplog.Read(0)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(st.dir, "drive")
	if err := layerDrive(m, st, sched, captured, w, scratch); err != nil {
		return nil, fmt.Errorf("layer drive: %w", err)
	}
	return res, nil
}

// runOne runs one workload in one mode and checks that it produced the
// whole declared metric set.
func runOne(spec workloadSpec, cfg runConfig) (*result, error) {
	run := runUntraced
	if cfg.traced {
		run = runTraced
	}
	res, err := run(spec, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	if err := res.metrics.check(res.decls); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	return res, nil
}

func mode(traced bool) string {
	if traced {
		return "traced (per-layer metrics)"
	}
	return "untraced (end-to-end metrics)"
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+workloadNames()+", or all")
		seed     = flag.Int64("seed", 20000229, "generator seed; the same seed gives the same statement schedule")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured window; warm-up and reference windows scale with it")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		descr    = flag.Bool("describe", false, "print BENCHMARK.json as this build declares it and exit")
		aa       = flag.Int("aa", 0, "A/A self-check: run each workload this many times and report the spread of every end-to-end metric")
		workDir  = flag.String("workdir", ".bench_build/work", "directory for the scratch databases")
		outDir   = flag.String("out", "benchmark/out", "directory for the Chrome traces of traced runs")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if *descr {
		os.Stdout.Write(describe().json())
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	specs := workloads
	if *workload != "all" {
		spec, err := findWorkload(*workload)
		if err != nil {
			fatal(err)
		}
		specs = []workloadSpec{spec}
	}
	cfg := newRunConfig(*seed, *seconds, *trace != 0)
	cfg.workDir, cfg.outDir = *workDir, *outDir

	if *aa > 0 {
		ok, err := selfCheck(os.Stdout, specs, cfg, *aa)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	allCorrect := true
	var last *result
	for _, spec := range specs {
		modes := []bool{cfg.traced}
		if *workload == "all" {
			modes = []bool{false, true} // the full report: both runs of every workload
		}
		for _, traced := range modes {
			c := cfg
			c.traced = traced
			res, err := runOne(spec, c)
			if err != nil {
				fatal(err)
			}
			res.print(os.Stdout, mode(traced))
			allCorrect = allCorrect && res.correct()
			last = res
		}
	}
	if *workload != "all" {
		line, err := json.Marshal(last.finalLine())
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
