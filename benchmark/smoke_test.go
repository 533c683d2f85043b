package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestManifestMatchesDeclarations fails when BENCHMARK.json and the
// metric declarations in this package have drifted apart.
func TestManifestMatchesDeclarations(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := describe().json(); !bytes.Equal(bytes.TrimSpace(onDisk), bytes.TrimSpace(want)) {
		t.Errorf("BENCHMARK.json differs from `benchmark -describe`; regenerate it.\nwant:\n%s", want)
	}
	// The driver refuses a manifest outside these limits before a
	// single run.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the manifest's naming rules", d)
		}
	}
	for _, w := range workloads {
		if seen[w.name] {
			t.Errorf("name %s used twice", w.name)
		}
		seen[w.name] = true
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: name or why (%d chars) breaks the manifest's rules", w.name, len(w.why))
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(onDisk) > 64<<10 {
		t.Errorf("manifest too large: %d workloads, %d end-to-end, %d per-layer, %d bytes",
			len(workloads), len(endToEnd), len(perLayer), len(onDisk))
	}
	if !seen["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs every workload with a two-second window, untraced and
// traced, and requires the oracle to pass and each run to print exactly
// the declared metric set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole pipeline eight times")
	}
	base := t.TempDir()
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := newRunConfig(3, 2, traced)
			cfg.setups = 1
			cfg.workDir = filepath.Join(base, "work")
			cfg.outDir = filepath.Join(base, "out")
			res, err := runOne(spec, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s traced=%v: not correct: %v", spec.name, traced, res.problems)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", spec.name, traced, res.attempted, res.failed)
			}

			// The final line carries exactly the declared names with units.
			want := endToEnd
			if traced {
				want = perLayer
			}
			line, err := json.Marshal(res.finalLine())
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s: final line %s: %v", spec.name, line, err)
			}
			if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Errorf("%s: final line lacks a key: %s", spec.name, line)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", spec.name, traced, len(got.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", spec.name, traced, d.Name, m.Unit, d.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, spec.name+".trace.json")); err != nil {
					t.Errorf("%s: no trace written: %v", spec.name, err)
				}
			}
		}
	}
}
