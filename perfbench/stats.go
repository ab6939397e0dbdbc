package main

import (
	"math"
	"slices"
)

// samples is a set of raw per-transaction (or per-call) samples in
// nanoseconds. Quantiles come from the sorted samples themselves, never
// from histogram buckets: an obs histogram bucket bound is only good to 2x.
type samples []int64

// sorted returns the samples in ascending order (a copy).
func (d samples) sorted() samples {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

// quantile returns the permille-th quantile of ascending samples by the
// nearest-rank method: the smallest sample with at least permille/1000 of
// all samples at or below it. Integer arithmetic keeps the rank exact
// (0.99·n in floating point can land one rank off). Empty input yields 0.
func quantile(sorted samples, permille int) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := (permille*n + 999) / 1000
	rank = min(max(rank, 1), n)
	return sorted[rank-1]
}

// lat summarises the latencies of one kind of transaction, in
// nanoseconds, so that the raw samples can be released.
type lat struct {
	n         int
	p50, p99  int64
	pooledP99 int64 // p99 over all the samples, whatever p99 is
}

// summary summarises ascending samples; p99 < 0 takes the pooled p99.
func summary(sorted samples, p99 int64) lat {
	l := lat{n: len(sorted), p50: quantile(sorted, 500), p99: p99, pooledP99: quantile(sorted, 990)}
	if p99 < 0 {
		l.p99 = l.pooledP99
	}
	return l
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// median returns the median of xs (the mean of the middle two for an even
// count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reaches does no work per transaction).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
