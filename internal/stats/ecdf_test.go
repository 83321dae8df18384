package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFMonotoneQuick(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
		}
		e := NewECDF(xs)
		px, ps := e.Points()
		for i := 1; i < len(px); i++ {
			if px[i] <= px[i-1] || ps[i] <= ps[i-1] {
				return false
			}
		}
		return e.Len() == len(xs) && (len(ps) == 0 || ps[len(ps)-1] == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2, 2})
	xs, ps := e.Points()
	if len(xs) != 3 || xs[0] != 1 || xs[1] != 2 || xs[2] != 3 {
		t.Errorf("xs = %v", xs)
	}
	if !almostEq(ps[0], 0.25, 1e-12) || !almostEq(ps[1], 0.75, 1e-12) || ps[2] != 1 {
		t.Errorf("ps = %v", ps)
	}
	if !sort.Float64sAreSorted(xs) {
		t.Error("points not sorted")
	}
}

func TestKolmogorovSmirnovSelf(t *testing.T) {
	// KS of a sample against its own generating distribution is small
	// for large n; against a wildly wrong model it is large.
	rng := rand.New(rand.NewSource(5))
	truth := Weibull{Shape: 0.6, Scale: 1000}
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = truth.Rand(rng)
	}
	e := NewECDF(xs)
	if d := e.KolmogorovSmirnov(truth.CDF); d > 0.02 {
		t.Errorf("KS against truth = %v, want small", d)
	}
	wrong := Exponential{Rate: 1}
	if d := e.KolmogorovSmirnov(wrong.CDF); d < 0.3 {
		t.Errorf("KS against wrong model = %v, want large", d)
	}
	if !math.IsNaN(NewECDF(nil).KolmogorovSmirnov(truth.CDF)) {
		t.Error("empty KS should be NaN")
	}
}
