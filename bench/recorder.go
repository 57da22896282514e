package main

import (
	"math"
	"sort"
	"time"
)

// samples is an exact latency recorder: every round trip is kept as an
// int32 nanosecond count (2.1 s ceiling, far above anything measured here),
// so a percentile is a sorted-array lookup with no bucket error. The
// program's own metrics.Histogram has power-of-two buckets — a quantile is
// good to 2x — which would hide the 10 % regressions this benchmark gates.
type samples []int32

// add records one duration, clamping at the int32 ceiling.
func (s *samples) add(d time.Duration) {
	if d > math.MaxInt32 {
		d = math.MaxInt32
	}
	*s = append(*s, int32(d))
}

// percentile returns the q-quantile (0 < q <= 1) of sorted samples in
// nanoseconds by the nearest-rank rule: the smallest sample with at least
// q·n samples at or below it. Zero samples read 0.
func percentile(sorted samples, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := atOrBelow(q, n) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return float64(sorted[rank])
}

// atOrBelow is the nearest-rank count ceil(q·n): how many of n sorted
// samples lie at or below the q-quantile. The epsilon keeps a product that
// is a whole number in exact arithmetic (0.999 x 10000) from being rounded
// up by its binary representation.
func atOrBelow(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailQuantile picks the highest percentile the sample supports, out of
// the candidate quantiles in ascending order: the largest q with at least
// ten samples strictly beyond its rank. A p99 quoted from 300 samples
// stands on three points; this rule says p90 instead. ok is false when
// even the first candidate is unsupported.
func tailQuantile(n int, candidates []float64) (q float64, ok bool) {
	for _, c := range candidates {
		if n-atOrBelow(c, n) >= 10 {
			q, ok = c, true
		}
	}
	return q, ok
}

// quartiles returns the first, second and third quartile of xs without
// modifying it, by the rule of Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method: rank i·(n+1)/4, interpolated, clamped to the
// data) — the rule the acceptance check for this benchmark is written in,
// so a spread printed here is the spread checked there. It is the
// arithmetic behind every median-over-windows and every spread printed.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median is the second quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the inter-quartile distance as a share of the median: the
// number that says whether a run's windows (or a set's runs) agree well
// enough for their median to be quoted.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// rangeOverMedian is (max − min) ÷ median, the within-set agreement
// figure the repeatability criterion is written in.
func rangeOverMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}
