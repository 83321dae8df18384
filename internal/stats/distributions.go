package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist is a continuous positive-support distribution as used by the
// failure-interarrival analyses: evaluable CDF/PDF, moments, sampling,
// and per-sample log-likelihood.
type Dist interface {
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// PDF returns the density at x.
	PDF(x float64) float64
	// Mean returns the distribution mean.
	Mean() float64
	// Variance returns the distribution variance.
	Variance() float64
	// LogLikelihood returns the total log-likelihood of the sample.
	LogLikelihood(xs []float64) float64
	// Rand draws one sample using rng.
	Rand(rng *rand.Rand) float64
	// NumParams returns the number of free parameters (for model
	// comparison).
	NumParams() int
	// Name returns a short model name.
	Name() string
}

// Exponential is the one-parameter exponential distribution with mean
// 1/Rate; the traditional failure-interarrival model.
type Exponential struct {
	// Rate is λ > 0.
	Rate float64
}

// Name implements Dist.
func (Exponential) Name() string { return "exponential" }

// NumParams implements Dist.
func (Exponential) NumParams() int { return 1 }

// CDF implements Dist.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-e.Rate*x)
}

// PDF implements Dist.
func (e Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return e.Rate * math.Exp(-e.Rate*x)
}

// Mean implements Dist.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Variance implements Dist.
func (e Exponential) Variance() float64 { return 1 / (e.Rate * e.Rate) }

// LogLikelihood implements Dist.
func (e Exponential) LogLikelihood(xs []float64) float64 {
	ll := 0.0
	logRate := math.Log(e.Rate)
	for _, x := range xs {
		if x < 0 {
			return math.Inf(-1)
		}
		ll += logRate - e.Rate*x
	}
	return ll
}

// Rand implements Dist.
func (e Exponential) Rand(rng *rand.Rand) float64 { return rng.ExpFloat64() / e.Rate }

// FitExponential returns the maximum-likelihood exponential fit
// (rate = 1/mean). Samples must be positive.
func FitExponential(xs []float64) (Exponential, error) {
	if len(xs) == 0 {
		return Exponential{}, ErrNoData
	}
	m := 0.0
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Exponential{}, fmt.Errorf("%w: exponential needs x > 0, got %v", ErrBadSample, x)
		}
		m += x
	}
	m /= float64(len(xs))
	return Exponential{Rate: 1 / m}, nil
}

// Weibull is the two-parameter Weibull distribution with CDF
// 1 - exp(-(x/Scale)^Shape). Shape < 1 means a decreasing hazard rate —
// the regime the paper finds for Blue Gene/P failure interarrivals.
type Weibull struct {
	// Shape is k > 0.
	Shape float64
	// Scale is λ > 0 (same units as the data).
	Scale float64
}

// Name implements Dist.
func (Weibull) Name() string { return "weibull" }

// NumParams implements Dist.
func (Weibull) NumParams() int { return 2 }

// CDF implements Dist.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(x/w.Scale, w.Shape))
}

// PDF implements Dist.
func (w Weibull) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x / w.Scale
	return (w.Shape / w.Scale) * math.Pow(z, w.Shape-1) * math.Exp(-math.Pow(z, w.Shape))
}

// Mean implements Dist: scale * Γ(1 + 1/k).
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

// Variance implements Dist: scale² (Γ(1+2/k) − Γ(1+1/k)²).
func (w Weibull) Variance() float64 {
	g1 := math.Gamma(1 + 1/w.Shape)
	g2 := math.Gamma(1 + 2/w.Shape)
	return w.Scale * w.Scale * (g2 - g1*g1)
}

// LogLikelihood implements Dist.
func (w Weibull) LogLikelihood(xs []float64) float64 {
	ll := 0.0
	logk, logl := math.Log(w.Shape), math.Log(w.Scale)
	for _, x := range xs {
		if x <= 0 {
			return math.Inf(-1)
		}
		z := x / w.Scale
		ll += logk - logl + (w.Shape-1)*(math.Log(x)-logl) - math.Pow(z, w.Shape)
	}
	return ll
}

// Rand implements Dist by inversion: scale * (-ln U)^(1/k).
func (w Weibull) Rand(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return w.Scale * math.Pow(-math.Log(u), 1/w.Shape)
}

// FitWeibull returns the maximum-likelihood Weibull fit using a damped
// Newton iteration on the shape's profile-likelihood equation
//
//	g(k) = Σ xᵏ ln x / Σ xᵏ − 1/k − mean(ln x) = 0
//
// followed by the closed-form scale. Samples must be positive and not
// all identical.
func FitWeibull(xs []float64) (Weibull, error) {
	if len(xs) == 0 {
		return Weibull{}, ErrNoData
	}
	logs := make([]float64, len(xs))
	allEqual := true
	for i, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Weibull{}, fmt.Errorf("%w: weibull needs x > 0, got %v", ErrBadSample, x)
		}
		logs[i] = math.Log(x)
		if x != xs[0] {
			allEqual = false
		}
	}
	if allEqual {
		return Weibull{}, fmt.Errorf("%w: weibull fit needs non-constant sample", ErrBadSample)
	}
	meanLog := Mean(logs)

	// g and g' at shape k. To avoid overflow with large x^k, factor out
	// max(x)^k: x^k = max^k * (x/max)^k; ratios cancel the max^k.
	maxX := Max(xs)
	eval := func(k float64) (g, dg float64) {
		var s0, s1, s2 float64 // Σ rᵏ, Σ rᵏ ln x, Σ rᵏ (ln x)²  with r = x/max
		for i, x := range xs {
			r := math.Pow(x/maxX, k)
			s0 += r
			s1 += r * logs[i]
			s2 += r * logs[i] * logs[i]
		}
		g = s1/s0 - 1/k - meanLog
		dg = (s2*s0-s1*s1)/(s0*s0) + 1/(k*k)
		return g, dg
	}

	k := 1.0
	// A moment-style starting point improves convergence for very
	// heavy-tailed samples: k0 ≈ 1.2 / stddev(ln x).
	if sd := StdDev(logs); sd > 0 && !math.IsNaN(sd) {
		k = 1.2 / sd
	}
	const (
		tol     = 1e-10
		maxIter = 200
	)
	for i := 0; i < maxIter; i++ {
		g, dg := eval(k)
		if math.Abs(g) < tol {
			break
		}
		step := g / dg
		next := k - step
		// Damp into the positive domain.
		for next <= 0 {
			step /= 2
			next = k - step
		}
		if math.Abs(next-k) < tol*k {
			k = next
			break
		}
		k = next
	}
	if k <= 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		return Weibull{}, fmt.Errorf("%w: weibull shape iteration diverged", ErrBadSample)
	}
	// scale = (mean(x^k))^(1/k), again factored around maxX.
	s0 := 0.0
	for _, x := range xs {
		s0 += math.Pow(x/maxX, k)
	}
	scale := maxX * math.Pow(s0/float64(len(xs)), 1/k)
	return Weibull{Shape: k, Scale: scale}, nil
}
