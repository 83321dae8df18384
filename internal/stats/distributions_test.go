package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExponentialBasics(t *testing.T) {
	e := Exponential{Rate: 0.5}
	if !almostEq(e.Mean(), 2, 1e-12) || !almostEq(e.Variance(), 4, 1e-12) {
		t.Errorf("mean/var = %v/%v", e.Mean(), e.Variance())
	}
	if !almostEq(e.CDF(2), 1-math.Exp(-1), 1e-12) {
		t.Errorf("CDF(2) = %v", e.CDF(2))
	}
	if e.CDF(-1) != 0 || e.PDF(-1) != 0 {
		t.Error("negative support should be 0")
	}
	if e.NumParams() != 1 || e.Name() != "exponential" {
		t.Error("metadata wrong")
	}
}

func TestWeibullBasics(t *testing.T) {
	// Shape 1 reduces to exponential with rate 1/scale.
	w := Weibull{Shape: 1, Scale: 2}
	e := Exponential{Rate: 0.5}
	for _, x := range []float64{0.1, 1, 2, 5} {
		if !almostEq(w.CDF(x), e.CDF(x), 1e-12) {
			t.Errorf("Weibull(1,2).CDF(%v) = %v, want %v", x, w.CDF(x), e.CDF(x))
		}
		if !almostEq(w.PDF(x), e.PDF(x), 1e-12) {
			t.Errorf("Weibull(1,2).PDF(%v) = %v, want %v", x, w.PDF(x), e.PDF(x))
		}
	}
	if !almostEq(w.Mean(), 2, 1e-12) {
		t.Errorf("mean = %v", w.Mean())
	}
	if w.NumParams() != 2 || w.Name() != "weibull" {
		t.Error("metadata wrong")
	}
}

func TestFitExponentialRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	truth := Exponential{Rate: 1.0 / 3600}
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = truth.Rand(rng)
	}
	fit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(fit.Rate-truth.Rate) / truth.Rate; rel > 0.03 {
		t.Errorf("rate = %v, want %v (rel err %v)", fit.Rate, truth.Rate, rel)
	}
}

func TestFitWeibullRecovers(t *testing.T) {
	cases := []Weibull{
		{Shape: 0.387, Scale: 8116.7},  // Table IV, before job filtering
		{Shape: 0.573, Scale: 68465.9}, // Table IV, after job filtering
		{Shape: 1.0, Scale: 100},
		{Shape: 2.5, Scale: 10},
	}
	for _, truth := range cases {
		rng := rand.New(rand.NewSource(42))
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = truth.Rand(rng)
		}
		fit, err := FitWeibull(xs)
		if err != nil {
			t.Fatalf("FitWeibull(%+v): %v", truth, err)
		}
		if rel := math.Abs(fit.Shape-truth.Shape) / truth.Shape; rel > 0.05 {
			t.Errorf("shape = %v, want %v", fit.Shape, truth.Shape)
		}
		if rel := math.Abs(fit.Scale-truth.Scale) / truth.Scale; rel > 0.08 {
			t.Errorf("scale = %v, want %v", fit.Scale, truth.Scale)
		}
	}
}

func TestFitWeibullRecoversQuick(t *testing.T) {
	// Property: for random true parameters in the regime the paper
	// reports (shape 0.3..1.2), MLE recovers shape within 10% on a
	// 5000-point sample.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := Weibull{Shape: 0.3 + rng.Float64()*0.9, Scale: math.Exp(rng.Float64() * 10)}
		xs := make([]float64, 5000)
		for i := range xs {
			xs[i] = truth.Rand(rng)
		}
		fit, err := FitWeibull(xs)
		if err != nil {
			return false
		}
		return math.Abs(fit.Shape-truth.Shape)/truth.Shape < 0.10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitWeibull(nil); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := FitWeibull([]float64{1, -2, 3}); err == nil {
		t.Error("negative sample accepted")
	}
	if _, err := FitWeibull([]float64{5, 5, 5}); err == nil {
		t.Error("constant sample accepted")
	}
	if _, err := FitExponential(nil); err == nil {
		t.Error("empty sample accepted (exp)")
	}
	if _, err := FitExponential([]float64{0}); err == nil {
		t.Error("zero sample accepted (exp)")
	}
}

func TestWeibullMomentsMatchSampling(t *testing.T) {
	w := Weibull{Shape: 0.573, Scale: 68465.9}
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = w.Rand(rng)
	}
	if rel := math.Abs(Mean(xs)-w.Mean()) / w.Mean(); rel > 0.03 {
		t.Errorf("sample mean %v vs analytic %v", Mean(xs), w.Mean())
	}
	// Variance of heavy-tailed Weibull converges slowly; loose bound.
	if rel := math.Abs(Variance(xs)-w.Variance()) / w.Variance(); rel > 0.25 {
		t.Errorf("sample var %v vs analytic %v", Variance(xs), w.Variance())
	}
}

func TestLogLikelihoodMatchesPDF(t *testing.T) {
	xs := []float64{10, 200, 3000, 40000}
	w := Weibull{Shape: 0.6, Scale: 5000}
	want := 0.0
	for _, x := range xs {
		want += math.Log(w.PDF(x))
	}
	if got := w.LogLikelihood(xs); !almostEq(got, want, 1e-9) {
		t.Errorf("weibull LL = %v, want %v", got, want)
	}
	e := Exponential{Rate: 1e-4}
	want = 0
	for _, x := range xs {
		want += math.Log(e.PDF(x))
	}
	if got := e.LogLikelihood(xs); !almostEq(got, want, 1e-9) {
		t.Errorf("exp LL = %v, want %v", got, want)
	}
	if !math.IsInf(w.LogLikelihood([]float64{-1}), -1) {
		t.Error("LL of out-of-domain sample should be -Inf")
	}
}
