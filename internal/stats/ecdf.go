package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (the input is copied).
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// Points returns (x, Fn(x)) support points for plotting: one point per
// distinct sample value.
func (e *ECDF) Points() (xs, ps []float64) {
	n := float64(len(e.sorted))
	for i := 0; i < len(e.sorted); i++ {
		if i+1 < len(e.sorted) && e.sorted[i+1] == e.sorted[i] {
			continue
		}
		xs = append(xs, e.sorted[i])
		ps = append(ps, float64(i+1)/n)
	}
	return xs, ps
}

// KolmogorovSmirnov returns the KS statistic sup |Fn(x) - F(x)| between
// the ECDF and a model CDF, evaluated at the sample points (both sides
// of each step).
func (e *ECDF) KolmogorovSmirnov(cdf func(float64) float64) float64 {
	n := float64(len(e.sorted))
	if n == 0 {
		return math.NaN()
	}
	d := 0.0
	for i, x := range e.sorted {
		f := cdf(x)
		lo := math.Abs(f - float64(i)/n)
		hi := math.Abs(float64(i+1)/n - f)
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}
