package main

import (
	"fmt"
	"io"
)

// candidates are the end-to-end metrics that are measured on every run
// but not gated; the self-check reports their spread so a demotion is
// a recorded measurement, not a guess.
var candidates = []string{
	"freshness_p50_ms", "freshness_p99_ms", "freshness_within_250ms_ratio", "src_stmt_p50_ms", "src_stmt_p99_ms",
	"olap_query_p50_ms", "olap_query_p95_ms",
}

// selfCheck runs each workload n times on this build, each time with
// another seed, and reports for every end-to-end metric the median, the
// quartiles and the interquartile spread as a share of the median — the
// quantity the regression bounds are set from. It reports false when a
// gated metric's spread exceeds its bound. The output is markdown;
// AA.md is this output, committed.
func selfCheck(w io.Writer, specs []workloadSpec, cfg runConfig, n int) (bool, error) {
	ok := true
	cfg.traced = false
	fmt.Fprintf(w, "A/A self-check: %d runs per workload, seeds %d..%d, %s window\n\n", n, cfg.seed, cfg.seed+int64(n)-1, cfg.window)
	for _, spec := range specs {
		series := map[string][]float64{}
		for i := 0; i < n; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			res, err := runOne(spec, c)
			if err != nil {
				return false, err
			}
			if !res.correct() {
				ok = false
				fmt.Fprintf(w, "%s seed %d: INCORRECT: %v\n", spec.name, c.seed, res.problems)
			}
			for name, v := range res.metrics.values {
				series[name] = append(series[name], v)
			}
		}
		fmt.Fprintf(w, "### %s\n\n| metric | unit | q1 | median | q3 | spread | bound | verdict | runs |\n|---|---|---|---|---|---|---|---|---|\n", spec.name)
		row := func(name, unit string, bound float64) {
			q1, med, q3 := quartiles(series[name])
			sp := spread(series[name])
			verdict, b := "ungated", "-"
			if bound > 0 {
				b = fmt.Sprintf("%.2f", bound)
				verdict = "ok"
				// setup_s is exempt from the spread rule: it is the median
				// of several set-ups already, and only its drift is gated.
				if sp > bound && name != "setup_s" {
					verdict = "EXCEEDS"
					ok = false
				}
			}
			fmt.Fprintf(w, "| %s | %s | %.4g | %.4g | %.4g | %.3f | %s | %s |", name, unit, q1, med, q3, sp, b, verdict)
			for _, v := range series[name] {
				fmt.Fprintf(w, " %.4g", v)
			}
			fmt.Fprintln(w, " |")
		}
		for _, d := range endToEnd {
			row(d.Name, d.Unit, d.Bound)
		}
		for _, name := range candidates {
			row(name, unitOf(name), 0)
		}
		fmt.Fprintln(w)
	}
	return ok, nil
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
