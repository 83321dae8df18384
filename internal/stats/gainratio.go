package stats

import (
	"math"
	"sort"
)

// entropy returns the Shannon entropy (bits) of a discrete count
// distribution given in a fixed order. Terms are accumulated in that
// order: float addition is not associative, so every caller passes
// counts in ascending order of their names (maporder invariant); zero
// counts contribute nothing.
func entropy(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// sortedKeys returns m's keys in sorted order, the iteration order
// every order-sensitive fold in this package must use.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GainRatioResult carries the decomposition of a gain-ratio
// computation for one feature.
type GainRatioResult struct {
	// ClassEntropy is H(class).
	ClassEntropy float64
	// ConditionalEntropy is H(class | feature).
	ConditionalEntropy float64
	// InfoGain is H(class) − H(class|feature).
	InfoGain float64
	// IntrinsicValue is H(feature), the split information.
	IntrinsicValue float64
	// Ratio is InfoGain / IntrinsicValue (0 when the feature is
	// constant).
	Ratio float64
}

// contingency tabulates paired observations as GainRatioCounts expects:
// one row per distinct feature value and one column per distinct class,
// each in ascending name order. Unequal lengths yield no table.
func contingency(feature, class []string) [][]int {
	if len(feature) != len(class) {
		return nil
	}
	rows := ordinals(feature)
	cols := ordinals(class)
	counts := make([][]int, len(rows))
	for r := range counts {
		counts[r] = make([]int, len(cols))
	}
	for i := range feature {
		counts[rows[feature[i]]][cols[class[i]]]++
	}
	return counts
}

// ordinals maps each distinct value to its rank in ascending order.
func ordinals(values []string) map[string]int {
	m := make(map[string]int)
	for _, v := range values {
		m[v] = 0
	}
	for i, k := range sortedKeys(m) {
		m[k] = i
	}
	return m
}

// GainRatioCounts computes the gain ratio from a feature-value × class
// contingency table: counts[v][c] observations have the v-th feature
// value and the c-th class. Rows must follow the ascending order of
// the feature values' names and columns that of the class names: every
// entropy sums its terms in that order, so the result is bit-identical
// to a fold over the observations in name order (the map-of-strings
// oracle in the tests). Rows may be ragged (missing
// cells count zero), and zero rows and columns contribute nothing.
func GainRatioCounts(counts [][]int) GainRatioResult {
	n, nClass := 0, 0
	for _, row := range counts {
		for _, c := range row {
			n += c
		}
		nClass = max(nClass, len(row))
	}
	if n == 0 {
		return GainRatioResult{}
	}
	// Every fold below has entropy's shape, h -= p*log2(p) per nonzero
	// count in name order, the same expressions the string-keyed
	// predecessor evaluated.
	// H(class), from the column totals in class order.
	hClass := 0.0
	for c := 0; c < nClass; c++ {
		tot := 0
		for _, row := range counts {
			if c < len(row) {
				tot += row[c]
			}
		}
		if tot == 0 {
			continue
		}
		p := float64(tot) / float64(n)
		hClass -= p * math.Log2(p)
	}
	// H(class|feature) and H(feature), from the rows in value order.
	hCond, iv := 0.0, 0.0
	for _, row := range counts {
		tot := 0
		for _, c := range row {
			tot += c
		}
		if tot == 0 {
			continue
		}
		hCond += float64(tot) / float64(n) * entropy(row, tot)
		p := float64(tot) / float64(n)
		iv -= p * math.Log2(p)
	}
	ig := hClass - hCond
	if ig < 0 {
		ig = 0 // numerical guard
	}
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

// RankedFeature names a feature and its gain-ratio score.
type RankedFeature struct {
	Name  string
	Score GainRatioResult
}

// FeatureCounts is one feature's contingency table, laid out as
// GainRatioCounts expects.
type FeatureCounts struct {
	Name   string
	Counts [][]int
}

// RankFeatures scores every feature column against the class labels
// and returns the features sorted by descending gain ratio (stable for
// ties by name). features maps feature name to its per-observation
// values; every column must have the same length as class. The
// product ranks count tables (RankFeatureCounts); this per-observation
// form stays because core's TestFeaturesMatchLegacy ranks its legacy
// string features with it.
func RankFeatures(features map[string][]string, class []string) []RankedFeature {
	tables := make([]FeatureCounts, 0, len(features))
	for _, name := range sortedKeys(features) {
		tables = append(tables, FeatureCounts{Name: name, Counts: contingency(features[name], class)})
	}
	return RankFeatureCounts(tables)
}

// RankFeatureCounts scores every feature's contingency table and
// returns the features sorted by descending gain ratio, ties by name.
func RankFeatureCounts(features []FeatureCounts) []RankedFeature {
	out := make([]RankedFeature, 0, len(features))
	for _, f := range features {
		out = append(out, RankedFeature{Name: f.Name, Score: GainRatioCounts(f.Counts)})
	}
	// Insertion sort by (ratio desc, name asc): tiny n.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if b.Score.Ratio > a.Score.Ratio ||
				(b.Score.Ratio == a.Score.Ratio && b.Name < a.Name) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
	return out
}
