package stats

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if v := Variance(xs); !almostEq(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v", v)
	}
	if s := StdDev(xs); !almostEq(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", s)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance([]float64{1})) {
		t.Error("empty/short samples should be NaN")
	}
}

func TestMax(t *testing.T) {
	if m := Max([]float64{9, 1, 5, 3, 7}); m != 9 {
		t.Errorf("Max = %v", m)
	}
	if !math.IsNaN(Max(nil)) {
		t.Error("empty sample should be NaN")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almostEq(r, 1, 1e-12) {
		t.Errorf("perfect positive r = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almostEq(r, -1, 1e-12) {
		t.Errorf("perfect negative r = %v", r)
	}
	if r := Pearson(xs, []float64{3, 3, 3, 3, 3}); !math.IsNaN(r) {
		t.Errorf("constant sample r = %v, want NaN", r)
	}
	if r := Pearson(xs, ys[:3]); !math.IsNaN(r) {
		t.Errorf("mismatched lengths r = %v, want NaN", r)
	}
	// Known value: r of (1,2,3) vs (1,3,2) is 0.5.
	if r := Pearson([]float64{1, 2, 3}, []float64{1, 3, 2}); !almostEq(r, 0.5, 1e-12) {
		t.Errorf("r = %v, want 0.5", r)
	}
}

func TestGammaQ(t *testing.T) {
	// Q(1, x) = e^-x.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		if got := GammaQ(1, x); !almostEq(got, math.Exp(-x), 1e-10) {
			t.Errorf("GammaQ(1,%v) = %v, want %v", x, got, math.Exp(-x))
		}
	}
	if GammaQ(2.5, 0) != 1 {
		t.Error("boundary at x=0 wrong")
	}
	// Continuity across the series/continued-fraction split at x = a+1.
	for _, a := range []float64{0.5, 1.5, 3, 10} {
		lo, hi := GammaQ(a, a+1-1e-9), GammaQ(a, a+1)
		if !almostEq(lo, hi, 1e-8) {
			t.Errorf("Q(a=%v) jumps at the split: %v vs %v", a, lo, hi)
		}
	}
	if !math.IsNaN(GammaQ(0, 1)) || !math.IsNaN(GammaQ(1, -1)) {
		t.Error("invalid domain should be NaN")
	}
}

func TestChiSquareSurvival(t *testing.T) {
	// Chi-square df=1: P(X >= 3.841) ≈ 0.05; df=2: P(X >= 5.991) ≈ 0.05.
	if p := ChiSquareSurvival(3.841, 1); !almostEq(p, 0.05, 5e-4) {
		t.Errorf("chi2(3.841, df1) = %v, want ~0.05", p)
	}
	if p := ChiSquareSurvival(5.991, 2); !almostEq(p, 0.05, 5e-4) {
		t.Errorf("chi2(5.991, df2) = %v, want ~0.05", p)
	}
	if p := ChiSquareSurvival(0, 1); p != 1 {
		t.Errorf("chi2(0) = %v, want 1", p)
	}
	if !math.IsNaN(ChiSquareSurvival(1, 0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestDailyCounts(t *testing.T) {
	offsets := []float64{0, 100, 86399, 86400, 86401, 3 * 86400, -5, 900 * 86400}
	counts := DailyCounts(offsets, 5)
	want := []int{3, 2, 0, 1, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("day %d = %d, want %d", i, counts[i], want[i])
		}
	}
}
