package main

import (
	"bytes"
	"encoding/json"
)

// runSeconds is the window the driver measures with; the bounds in
// endToEnd were set from A/A runs of this length (AA.md).
const runSeconds = 20

// manifest is BENCHMARK.json: what the driver runs and which metrics it
// expects. The file at the repository root is this value, written by
// `-describe`; smoke_test.go fails when the two differ, so a metric
// cannot be renamed or dropped in one place only.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []metricDecl    `json:"end_to_end"`
	PerLayer   []metricDecl    `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func describe() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.name, w.why})
	}
	return m
}

func (m manifest) json() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	enc.Encode(m) // a struct of strings and numbers cannot fail to encode
	return buf.Bytes()
}
