// Package stats provides the statistical machinery of the paper's
// evaluation: descriptive statistics, empirical CDFs, exponential and
// Weibull distributions with maximum-likelihood fitting, likelihood-ratio
// model comparison, Kolmogorov–Smirnov distances, Pearson correlation,
// and information-gain-ratio feature ranking. Everything is
// implemented on the standard library only.
package stats

import (
	"errors"
	"math"
)

// ErrNoData reports an operation over an empty sample.
var ErrNoData = errors.New("stats: empty sample")

// ErrBadSample reports a sample violating a fitter's domain (e.g.
// non-positive values for a Weibull fit).
var ErrBadSample = errors.New("stats: sample outside distribution domain")

// Mean returns the arithmetic mean of xs; NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs; NaN when
// len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the maximum of xs; NaN for an empty sample.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Pearson returns the Pearson product-moment correlation coefficient of
// the paired samples xs, ys. It returns NaN when the lengths differ,
// fewer than two pairs exist, or either sample is constant.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// DailyCounts buckets event offsets (seconds from campaign start) into
// whole days and returns counts for days 0..maxDay; the "number of
// interruptions per day" series of Figure 5.
func DailyCounts(offsetsSec []float64, days int) []int {
	out := make([]int, days)
	for _, s := range offsetsSec {
		if s < 0 {
			continue
		}
		d := int(s / 86400)
		if d < days {
			out[d]++
		}
	}
	return out
}
