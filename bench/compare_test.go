package main

import "testing"

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	pairsOf := func(a, b []float64) [][2]float64 {
		p := make([][2]float64, len(a))
		for i := range a {
			p[i] = [2]float64{a[i], b[i]}
		}
		return p
	}
	noisy := []float64{70, 130, 100, 60, 140, 100, 80, 120, 100, 100}
	for _, tc := range []struct {
		name   string
		better string
		a, b   []float64
		want   string
	}{
		{"same", "lower", steady, steady, "unchanged"},
		{"within bound", "lower", steady, scale(steady, 1.05), "unchanged"},
		{"slower beyond bound", "lower", steady, scale(steady, 1.2), "worse"},
		{"faster beyond spread", "lower", steady, scale(steady, 0.9), "better"},
		{"higher is better", "higher", steady, scale(steady, 0.8), "worse"},
		{"higher and faster", "higher", steady, scale(steady, 1.1), "better"},
		{"spread beyond bound", "lower", steady, noisy, "unresolved"},
		{"spread beyond bound yet every run better", "lower", scale(noisy, 3), noisy, "better"},
	} {
		a, b := tc.a, tc.b
		got := verdict(tc.better, 0.10, a, b, spread(a), spread(b), pairsOf(a, b))
		if got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}

	// A median gain that wins too few seed pairs is not a gain.
	a := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	b := []float64{95, 95, 95, 95, 95, 95, 95, 95, 101, 101}
	if got := verdict("lower", 0.10, a, b, spread(a), spread(b), pairsOf(a, b)); got != "unchanged" {
		t.Errorf("8 of 10 pairs won: verdict = %s, want unchanged", got)
	}
}

func TestCompareRows(t *testing.T) {
	rec := func(seed int64, wl string, v float64) record {
		return record{Workload: wl, Seed: seed, Metrics: map[string]metric{"time_to_result_ms": {Value: v, Unit: "ms"}}}
	}
	var a, b []record
	for s := int64(1); s <= 4; s++ {
		a = append(a, rec(s, "noise-light", 100), rec(s, "paper-batch", 100))
		b = append(b, rec(s, "noise-light", 100), rec(s, "paper-batch", 130))
	}
	defs := []bounded{{metricDef{"time_to_result_ms", "ms", "lower"}, 0.1}, {metricDef{"cpu_s", "s", "lower"}, 0.1}}
	rows := compare(defs, a, b)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if r := rows[0]; r.workload != "paper-batch" || r.verdict != "worse" || r.runsA != 4 || r.change < 0.29 {
		t.Errorf("paper-batch row = %+v", r)
	}
	if r := rows[1]; r.workload != "noise-light" || r.verdict != "unchanged" {
		t.Errorf("noise-light row = %+v", r)
	}
}
