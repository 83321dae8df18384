package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a latency distribution is reported
// at, lowest first.
var tailLadder = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// tailPercentile returns the highest ladder percentile that has at least
// ten samples beyond it among n samples; ok is false when even the
// median lacks them (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if float64(n)*(1-q) < 10-1e-9 {
			break
		}
		p, ok = q, true
	}
	return p, ok
}

// percentile returns the nearest-rank p-quantile of xs (0 for none).
// xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" default), which is how a run set's spread is judged. A
// single value is its own quartiles; none gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var qs [n - 1]float64
	for i := 1; i < n; i++ {
		j := max(1, min(i*m/n, len(d)-1))
		delta := float64(i*m - j*n)
		qs[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return qs[0], qs[1], qs[2]
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile distance of xs as a share of its median
// (0 when the median is 0).
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
