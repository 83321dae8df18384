package stats

import (
	"math"
	"testing"
)

// GainRatio scores paired observations through GainRatioCounts, the
// way RankFeatures scores each of its columns.
func GainRatio(feature, class []string) GainRatioResult {
	return GainRatioCounts(contingency(feature, class))
}

func TestGainRatioPerfectPredictor(t *testing.T) {
	// Feature identical to the class: IG = H(class), ratio = 1.
	class := []string{"y", "y", "n", "n"}
	r := GainRatio(class, class)
	if !almostEq(r.ClassEntropy, 1, 1e-12) {
		t.Errorf("H(class) = %v, want 1", r.ClassEntropy)
	}
	if !almostEq(r.InfoGain, 1, 1e-12) || !almostEq(r.Ratio, 1, 1e-12) {
		t.Errorf("IG=%v ratio=%v, want 1,1", r.InfoGain, r.Ratio)
	}
}

func TestGainRatioUselessFeature(t *testing.T) {
	feature := []string{"a", "b", "a", "b"}
	class := []string{"y", "y", "n", "n"}
	r := GainRatio(feature, class)
	if !almostEq(r.InfoGain, 0, 1e-12) || !almostEq(r.Ratio, 0, 1e-12) {
		t.Errorf("independent feature IG=%v ratio=%v, want 0", r.InfoGain, r.Ratio)
	}
}

func TestGainRatioConstantFeature(t *testing.T) {
	feature := []string{"a", "a", "a", "a"}
	class := []string{"y", "y", "n", "n"}
	r := GainRatio(feature, class)
	if r.Ratio != 0 || r.IntrinsicValue != 0 {
		t.Errorf("constant feature ratio=%v iv=%v, want 0", r.Ratio, r.IntrinsicValue)
	}
}

func TestGainRatioKnownValue(t *testing.T) {
	// Quinlan's weather "outlook" example: IG ≈ 0.2467, IV ≈ 1.577.
	outlook := []string{
		"sunny", "sunny", "overcast", "rain", "rain", "rain", "overcast",
		"sunny", "sunny", "rain", "sunny", "overcast", "overcast", "rain",
	}
	play := []string{
		"no", "no", "yes", "yes", "yes", "no", "yes",
		"no", "yes", "yes", "yes", "yes", "yes", "no",
	}
	r := GainRatio(outlook, play)
	if !almostEq(r.InfoGain, 0.2467, 5e-4) {
		t.Errorf("IG = %v, want ~0.2467", r.InfoGain)
	}
	if !almostEq(r.IntrinsicValue, 1.5774, 5e-4) {
		t.Errorf("IV = %v, want ~1.5774", r.IntrinsicValue)
	}
	if !almostEq(r.Ratio, 0.2467/1.5774, 1e-3) {
		t.Errorf("ratio = %v", r.Ratio)
	}
}

func TestGainRatioDegenerate(t *testing.T) {
	if r := GainRatio(nil, nil); r.Ratio != 0 {
		t.Error("empty input should be zero")
	}
	if r := GainRatio([]string{"a"}, []string{"x", "y"}); r.Ratio != 0 {
		t.Error("mismatched lengths should be zero")
	}
}

func TestGainRatioNonNegative(t *testing.T) {
	feature := []string{"a", "b", "c", "a", "b", "c", "a"}
	class := []string{"y", "n", "y", "n", "y", "n", "y"}
	r := GainRatio(feature, class)
	if r.InfoGain < 0 || r.Ratio < 0 || math.IsNaN(r.Ratio) {
		t.Errorf("negative/NaN gain: %+v", r)
	}
}

func TestRankFeatures(t *testing.T) {
	class := []string{"y", "y", "n", "n", "y", "n"}
	features := map[string][]string{
		"perfect": {"y", "y", "n", "n", "y", "n"},
		"noise":   {"a", "b", "a", "b", "a", "b"},
		"partial": {"p", "p", "p", "q", "q", "q"},
	}
	ranked := RankFeatures(features, class)
	if len(ranked) != 3 {
		t.Fatalf("len = %d", len(ranked))
	}
	if ranked[0].Name != "perfect" {
		t.Errorf("top feature = %q, want perfect", ranked[0].Name)
	}
	if ranked[len(ranked)-1].Score.Ratio > ranked[0].Score.Ratio {
		t.Error("ranking not descending")
	}
}

func TestRankFeaturesTieBreakByName(t *testing.T) {
	class := []string{"y", "n", "y", "n"}
	features := map[string][]string{
		"b_noise": {"a", "a", "a", "a"},
		"a_noise": {"c", "c", "c", "c"},
	}
	ranked := RankFeatures(features, class)
	if ranked[0].Name != "a_noise" || ranked[1].Name != "b_noise" {
		t.Errorf("tie break wrong: %v, %v", ranked[0].Name, ranked[1].Name)
	}
}
