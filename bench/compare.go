package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// bounded is an end-to-end metric with its regression bound, as
// BENCHMARK.json states it.
type bounded struct {
	metricDef
	Bound float64 `json:"bound"`
}

// compareMain is `bench compare A.jsonl B.jsonl`: one row per workload
// and end-to-end metric, judging runs B (a change) against runs A (its
// parent) by the bounds in BENCHMARK.json. It exits 1 when a metric got
// worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.jsonl B.jsonl (from the repository root)")
		return 2
	}
	defs, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	var sides [2][]record
	for i := range sides {
		if sides[i], err = loadRecords(args[i]); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 1
		}
	}
	rows := compare(defs, sides[0], sides[1])
	fmt.Fprintf(stdout, "%-12s %-22s %6s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "unit", "A median", "B median", "change", "sprd A", "sprd B", "bound", "verdict")
	worse := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-12s %-22s %6s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s (runs %d/%d)\n",
			r.workload, r.metric, r.unit, r.a, r.b, 100*r.change, 100*r.spreadA, 100*r.spreadB, 100*r.bound,
			r.verdict, r.runsA, r.runsB)
		if r.verdict == "worse" {
			worse++
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

func loadBounds(path string) ([]bounded, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bounded `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// loadRecords reads the JSON lines -out appended.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

type compareRow struct {
	workload, metric, unit string
	a, b                   float64 // medians
	change                 float64 // (b-a)/a
	spreadA, spreadB       float64
	bound                  float64
	verdict                string
	runsA, runsB           int
}

// compare judges every (workload, metric) present on both sides.
func compare(defs []bounded, a, b []record) []compareRow {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var rows []compareRow
	for _, wl := range names {
		for _, d := range defs {
			va, sa := side(a, wl, d.Name)
			vb, sb := side(b, wl, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := compareRow{workload: wl, metric: d.Name, unit: d.Unit, bound: d.Bound,
				a: median(va), b: median(vb), runsA: len(va), runsB: len(vb)}
			if r.a != 0 {
				r.change = (r.b - r.a) / math.Abs(r.a)
			}
			r.spreadA, r.spreadB = spreadOf(va, sa), spreadOf(vb, sb)
			r.verdict = verdict(d.Better, d.Bound, va, vb, r.spreadA, r.spreadB, pairs(a, b, wl, d.Name))
			rows = append(rows, r)
		}
	}
	return rows
}

// side returns one value per run of workload wl, and the within-run
// samples of the last run.
func side(recs []record, wl, metric string) (values, samples []float64) {
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == wl {
			values = append(values, m.Value)
			samples = m.Samples
		}
	}
	return values, samples
}

// spreadOf is the spread between runs, or within the one run there is.
func spreadOf(values, samples []float64) float64 {
	if len(values) > 1 {
		return spread(values)
	}
	return spread(samples)
}

// pairs matches runs of the two sides by seed (median per seed).
func pairs(a, b []record, wl, metric string) [][2]float64 {
	bySeed := func(recs []record) map[int64][]float64 {
		m := map[int64][]float64{}
		for _, r := range recs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == wl {
				m[r.Seed] = append(m[r.Seed], v.Value)
			}
		}
		return m
	}
	ma, mb := bySeed(a), bySeed(b)
	var seeds []int64
	for s := range ma {
		if _, ok := mb[s]; ok {
			seeds = append(seeds, s)
		}
	}
	slices.Sort(seeds)
	out := make([][2]float64, len(seeds))
	for i, s := range seeds {
		out[i] = [2]float64{median(ma[s]), median(mb[s])}
	}
	return out
}

// verdict judges B against A for one metric:
//   - unresolved: either side's spread exceeds the bound, unless every
//     B value beats every A value (then better);
//   - worse: B's median is worse than A's by more than the bound;
//   - better: B's median beats A's by more than A's spread, and B wins
//     at least nine tenths of the seed pairs there are;
//   - unchanged otherwise.
func verdict(better string, bound float64, a, b []float64, spreadA, spreadB float64, paired [][2]float64) string {
	sign := 1.0 // positive: worse
	if better == "higher" {
		sign = -1
	}
	beats := func(x, y float64) bool { return sign*(x-y) < 0 }
	allBeat := true
	for _, x := range b {
		for _, y := range a {
			allBeat = allBeat && beats(x, y)
		}
	}
	if spreadA > bound || spreadB > bound {
		if allBeat {
			return "better"
		}
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	worse := 0.0
	if ma != 0 {
		worse = sign * (mb - ma) / math.Abs(ma)
	}
	if worse > bound {
		return "worse"
	}
	wins := 0
	for _, p := range paired {
		if beats(p[1], p[0]) {
			wins++
		}
	}
	if -worse > spreadA && (len(paired) == 0 || float64(wins) >= 0.9*float64(len(paired))) {
		return "better"
	}
	return "unchanged"
}
