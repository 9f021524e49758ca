package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the smallest value with at least p of the samples at
// or below it. It returns NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs, in any order.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// samplesBeyond counts the samples strictly above the nearest-rank
// p-quantile of n samples. A tail percentile is supported when at
// least minBeyond samples lie beyond it.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

const minBeyond = 10

// quartiles returns the first quartile, median and third quartile of
// xs by the exclusive method — the one Python's
// statistics.quantiles(xs, n=4) uses, so spreads printed here can be
// held against the acceptance rule directly. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// sample is one timed operation: when it ended, in seconds since the
// window opened, and how long it took.
type sample struct {
	at     float64
	ms     float64
	kind   opKind
	traced bool
}

type opKind uint8

const (
	opMain opKind = iota // the workload's op: detect, apply, check, update
	opPage               // a bounded violations page (serve_mixed_10k)
)

// subWindowMedians cuts [0, seconds) into k equal sub-windows and
// returns the median latency of each non-empty one, in order. Their
// quartiles show drift inside one run, which a pooled median hides.
func subWindowMedians(samples []sample, seconds float64, k int) []float64 {
	buckets := make([][]float64, k)
	for _, s := range samples {
		i := int(s.at / seconds * float64(k))
		if i < 0 {
			i = 0
		}
		if i >= k {
			i = k - 1 // an op that overshot the deadline belongs to the last
		}
		buckets[i] = append(buckets[i], s.ms)
	}
	var out []float64
	for _, b := range buckets {
		if len(b) > 0 {
			out = append(out, median(b))
		}
	}
	return out
}

func latencies(samples []sample, keep func(sample) bool) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if keep == nil || keep(s) {
			out = append(out, s.ms)
		}
	}
	return out
}
