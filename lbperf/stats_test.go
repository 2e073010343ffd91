package main

import (
	"math"
	"testing"
)

// The reference values are Python's statistics.quantiles(xs, n=4), whose
// default "exclusive" method the benchmark's spread bounds are stated in.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Errorf("p90 of 99 samples reported with fewer than 10 beyond it")
	}
}

func TestCompareVerdicts(t *testing.T) {
	seeds := func(vs ...float64) map[uint64]float64 {
		m := map[uint64]float64{}
		for i, v := range vs {
			m[uint64(i+1)] = v
		}
		return m
	}
	old := seeds(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name   string
		new    map[uint64]float64
		higher bool
		want   string
	}{
		{"same", seeds(101, 100, 100, 99, 101, 99, 100, 100, 100, 101), false, "same"},
		{"worse beyond bound", seeds(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), false, "worse"},
		{"better", seeds(85, 86, 84, 85, 87, 83, 85, 86, 84, 85), false, "better"},
		{"higher is better", seeds(85, 86, 84, 85, 87, 83, 85, 86, 84, 85), true, "worse"},
		{"unresolved", seeds(60, 140, 70, 130, 100, 65, 135, 100, 99, 101), false, "unresolved (spread 62.5% exceeds the 10% bound)"},
	}
	for _, c := range cases {
		if got := compareMetric(old, c.new, c.higher, 0.10).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
