package main

import (
	"math"
	"testing"
	"time"
)

func TestSameSeedSameSchedule(t *testing.T) {
	for _, spec := range workloads {
		a := generate(spec, 7, 3*time.Second)
		b := generate(spec, 7, 3*time.Second)
		c := generate(spec, 8, 3*time.Second)
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 hashed to %016x then %016x", spec.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 both hashed to %016x", spec.name, a.hash)
		}
		if len(a.stmts) == 0 || len(a.reads) == 0 {
			t.Errorf("%s: empty schedule: %d statements, %d reads", spec.name, len(a.stmts), len(a.reads))
		}
		if open := spec.rate > 0; open != (a.due != nil) {
			t.Errorf("%s: open loop %v but due times present %v", spec.name, open, a.due != nil)
		}
	}
}

// Every mix must leave the table the size it found it, or a longer
// window would measure a different table than a shorter one.
func TestMixesAreSizeStationary(t *testing.T) {
	for _, spec := range workloads {
		for _, total := range []time.Duration{2 * time.Second, 60 * time.Second} {
			s := generate(spec, 11, total)
			if drift := math.Abs(float64(s.endRows-spec.rows)) / float64(spec.rows); drift > 0.02 {
				t.Errorf("%s over %s (%d statements): %d rows became %d, drift %.1f%% > 2%%",
					spec.name, total, len(s.stmts), spec.rows, s.endRows, 100*drift)
			}
		}
	}
}

// The A/A check and the driver compute spread with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 8}, 3, 6, 9}, // the exclusive method extrapolates past two points
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
