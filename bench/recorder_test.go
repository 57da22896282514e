package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // 1..100 ns, recorded out of order
		s.add(time.Duration(i))
	}
	slices.Sort(s)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.90, 90}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// One sample is every percentile; the clamp keeps the rank in range.
	if got := percentile(samples{7}, 0.999); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestSamplesClampAtInt32(t *testing.T) {
	var s samples
	s.add(3 * time.Second) // beyond the int32 nanosecond ceiling
	if s[0] != math.MaxInt32 {
		t.Errorf("a 3 s round trip was recorded as %d ns, want the ceiling %d", s[0], math.MaxInt32)
	}
}

// The highest percentile quoted is the highest with at least ten samples
// beyond it.
func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	cands := []float64{0.90, 0.95, 0.99, 0.999}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},       // p90 of 99 leaves 9 beyond
		{100, 0.90, true},    // p90 of 100 leaves exactly 10
		{199, 0.90, true},    // p95 of 199 leaves 9
		{200, 0.95, true},    // p95 of 200 leaves 10
		{999, 0.95, true},    // p99 of 999 leaves 9
		{1000, 0.99, true},   // p99 of 1000 leaves 10
		{9999, 0.99, true},   // p99.9 of 9999 leaves 9
		{10000, 0.999, true}, // p99.9 of 10000 leaves 10
	} {
		got, ok := tailQuantile(c.n, cands)
		if got != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// quartiles follows Python's statistics.quantiles(xs, n=4), the rule the
// acceptance check is written in. The expected values below are that
// function's outputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25}, // order does not matter
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 7}, 4.5, 6, 7.5}, // two points: the rule extrapolates
		{[]float64{4}, 4, 4, 4},
	} {
		before := append([]float64(nil), c.xs...)
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", before, q1, m, q3, c.q1, c.m, c.q3)
		}
		for i := range before {
			if before[i] != c.xs[i] {
				t.Fatalf("quartiles reordered its input: %v -> %v", before, c.xs)
			}
		}
	}
}

// The median over windows and the spread beside it: a run's value is the
// median of its windows' values, and the spread is the inter-quartile
// distance as a share of that median.
func TestMedianOverWindowsAndSpread(t *testing.T) {
	// Ten windows of req/s, two of them hit by a neighbour.
	windows := []float64{100, 101, 99, 100, 102, 60, 98, 100, 55, 101}
	if got := median(windows); got != 100 {
		t.Errorf("median over windows = %v, want 100: two slow windows must not move it", got)
	}
	// Sorted: 55 60 98 99 100 100 100 101 101 102; q1 = 60+0.75*38 = 88.5, q3 = 101.
	if got, want := spread(windows), (101-88.5)/100; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got, want := rangeOverMedian(windows), (102.0-55)/100; math.Abs(got-want) > 1e-9 {
		t.Errorf("rangeOverMedian = %v, want %v", got, want)
	}
	if spread(nil) != 0 || spread([]float64{0, 0, 0}) != 0 || rangeOverMedian(nil) != 0 {
		t.Error("an empty or all-zero set must have spread 0, not NaN")
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name         string
		b            []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, true, 0.10, "ok"},
		{"slower within bound", []float64{95, 96, 94, 95, 97}, true, 0.10, "ok"},
		{"slower beyond bound", []float64{80, 81, 79, 80, 82}, true, 0.10, "regressed"},
		{"lower is better, rose beyond bound", []float64{120, 121, 119, 120, 122}, false, 0.10, "regressed"},
		{"lower is better, fell", []float64{80, 81, 79, 80, 82}, false, 0.10, "ok"},
		{"too noisy to say", []float64{60, 140, 100, 70, 130}, true, 0.10, "unresolved"},
		{"noisy but every run better", []float64{150, 250, 200, 160, 300}, true, 0.10, "ok"},
	} {
		if _, got := verdict(base, c.b, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}
