package stats

import "math"

// GammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaQ(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x < 0:
		return math.NaN()
	case x == 0:
		return 1
	}
	if x < a+1 {
		return 1 - gammaSeries(a, x)
	}
	return gammaContinuedFraction(a, x)
}

const (
	gammaEps     = 3e-14
	gammaMaxIter = 500
)

// gammaSeries evaluates P(a,x) by its power series.
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaContinuedFraction evaluates Q(a,x) by Lentz's modified
// continued fraction.
func gammaContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareSurvival returns P(X >= x) for a chi-square distribution
// with df degrees of freedom — the p-value of a likelihood-ratio
// statistic.
func ChiSquareSurvival(x float64, df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if x <= 0 {
		return 1
	}
	return GammaQ(float64(df)/2, x/2)
}
