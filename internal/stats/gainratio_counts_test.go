package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// legacyEntropy and legacyGainRatio are the map-of-strings gain ratio
// GainRatioCounts replaced, kept verbatim as the oracle the counts
// core must match bit for bit.
func legacyEntropy(counts map[string]int, total int) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, k := range sortedKeys(counts) {
		c := counts[k]
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

func legacyGainRatio(feature, class []string) GainRatioResult {
	n := len(feature)
	if n == 0 || n != len(class) {
		return GainRatioResult{}
	}
	classCounts := make(map[string]int)
	featCounts := make(map[string]int)
	joint := make(map[string]map[string]int)
	for i := 0; i < n; i++ {
		classCounts[class[i]]++
		featCounts[feature[i]]++
		m := joint[feature[i]]
		if m == nil {
			m = make(map[string]int)
			joint[feature[i]] = m
		}
		m[class[i]]++
	}
	hClass := legacyEntropy(classCounts, n)
	hCond := 0.0
	for _, f := range sortedKeys(joint) {
		hCond += float64(featCounts[f]) / float64(n) * legacyEntropy(joint[f], featCounts[f])
	}
	ig := hClass - hCond
	if ig < 0 {
		ig = 0 // numerical guard
	}
	iv := legacyEntropy(featCounts, n)
	r := GainRatioResult{
		ClassEntropy:       hClass,
		ConditionalEntropy: hCond,
		InfoGain:           ig,
		IntrinsicValue:     iv,
	}
	if iv > 0 {
		r.Ratio = ig / iv
	}
	return r
}

// randomColumns draws a paired feature/class sample: up to nVals
// feature values and nClass classes, names chosen so that string order
// differs from numeric order ("v10" < "v2").
func randomColumns(rng *rand.Rand, n, nVals, nClass int) (feature, class []string) {
	for i := 0; i < n; i++ {
		feature = append(feature, fmt.Sprintf("v%d", rng.Intn(nVals)))
		class = append(class, fmt.Sprintf("c%d", rng.Intn(nClass)))
	}
	return feature, class
}

// TestGainRatioCountsMatchesLegacy pins the counts core to the
// map-of-strings implementation with ==, not a tolerance, on random
// samples and on the degenerate ones: empty, constant feature, single
// class, mismatched lengths.
func TestGainRatioCountsMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type sample struct{ feature, class []string }
	samples := []sample{
		{nil, nil},
		{[]string{}, []string{}},
		{[]string{"a"}, []string{"x", "y"}},
		{[]string{"a", "a", "a"}, []string{"x", "y", "x"}},
		{[]string{"a", "b", "c"}, []string{"x", "x", "x"}},
		{[]string{"a"}, []string{"x"}},
	}
	for i := 0; i < 2000; i++ {
		n := rng.Intn(300)
		f, c := randomColumns(rng, n, 1+rng.Intn(15), 1+rng.Intn(4))
		samples = append(samples, sample{f, c})
	}
	for i, s := range samples {
		want := legacyGainRatio(s.feature, s.class)
		if got := GainRatio(s.feature, s.class); got != want {
			t.Fatalf("sample %d (%d obs): GainRatio = %+v, legacy %+v", i, len(s.feature), got, want)
		}
	}
}

// TestRankFeaturesMatchesLegacy ranks random feature sets through the
// counts core and through legacyGainRatio with the same ordering rule.
func TestRankFeaturesMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		_, class := randomColumns(rng, n, 1, 1+rng.Intn(3))
		features := map[string][]string{}
		for k := 0; k < 1+rng.Intn(6); k++ {
			f, _ := randomColumns(rng, n, 1+rng.Intn(8), 1)
			features[fmt.Sprintf("f%d", k)] = f
		}
		got := RankFeatures(features, class)
		var want []RankedFeature
		for _, name := range sortedKeys(features) {
			want = append(want, RankedFeature{Name: name, Score: legacyGainRatio(features[name], class)})
		}
		for i := 1; i < len(want); i++ {
			for j := i; j > 0; j-- {
				a, b := want[j-1], want[j]
				if b.Score.Ratio > a.Score.Ratio || (b.Score.Ratio == a.Score.Ratio && b.Name < a.Name) {
					want[j-1], want[j] = b, a
				} else {
					break
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d ranked, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: %+v, legacy %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestGainRatioCountsIgnoresEmptyCells pins that zero rows, zero
// columns and ragged rows leave the result unchanged.
func TestGainRatioCountsIgnoresEmptyCells(t *testing.T) {
	want := GainRatioCounts([][]int{{3, 1}, {2, 5}})
	for _, counts := range [][][]int{
		{{3, 1, 0}, {0, 0, 0}, {2, 5, 0}},
		{{3, 1}, {}, {2, 5}},
		{{0, 0}, {3, 1}, {2, 5}},
	} {
		if got := GainRatioCounts(counts); got != want {
			t.Errorf("GainRatioCounts(%v) = %+v, want %+v", counts, got, want)
		}
	}
	if got := GainRatioCounts([][]int{{0}, {0, 0}}); got != (GainRatioResult{}) {
		t.Errorf("all-zero table = %+v, want zero", got)
	}
}
