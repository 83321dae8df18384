package repro

import (
	"context"
	"fmt"
	"io"
	"math"
	"reflect"

	"repro/internal/parallel"
	"repro/internal/report"
)

// EnsembleStat summarizes one Summary quantity across the seeds of an
// ensemble run.
type EnsembleStat struct {
	// Mean and Std are the across-seed sample mean and (unbiased)
	// standard deviation.
	Mean, Std float64
	// Min and Max delimit the observed range.
	Min, Max float64
}

// HalfWidth95 returns the half-width of a normal-approximation 95%
// confidence interval on the mean (1.96 std errors); zero for a single
// seed.
func (s EnsembleStat) HalfWidth95(n int) float64 {
	if n < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(n))
}

// Ensemble is the result of RunEnsemble: per-seed summaries plus
// across-seed statistics for every numeric observation of the paper.
type Ensemble struct {
	// Seeds lists the campaign seeds, in run order.
	Seeds []int64
	// PerSeed holds each campaign's summary, aligned with Seeds.
	PerSeed []Summary
	// Quantities lists the numeric Summary field names in declaration
	// order (the paper's observation order).
	Quantities []string
	// Stats maps each quantity to its across-seed statistics.
	Stats map[string]EnsembleStat
}

// RunEnsemble simulates and analyzes cfg.Seeds campaigns at seeds
// cfg.Seed..cfg.Seed+cfg.Seeds-1, fanning the runs out over the worker
// pool (cfg.Parallelism), and aggregates every numeric observation
// into across-seed mean, deviation and range — the confidence interval
// companion to Run's single-seed point estimates. Campaign i is
// byte-identical to Run at that seed regardless of worker count.
func RunEnsemble(cfg Config) (*Ensemble, error) {
	n := cfg.Seeds
	if n <= 0 {
		n = 1
	}
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("repro: non-positive Days %d", cfg.Days)
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = cfg.Seed + int64(i)
	}
	// One worker per campaign; a campaign runs and analyzes without
	// fanning out, so Parallelism 1 is fully sequential.
	summaries, err := parallel.Map(context.Background(), cfg.Parallelism, n, func(i int) (Summary, error) {
		c := cfg
		c.Seed = seeds[i]
		rep, err := Run(c)
		if err != nil {
			return Summary{}, fmt.Errorf("seed %d: %w", seeds[i], err)
		}
		return rep.Summary(), nil
	})
	if err != nil {
		return nil, err
	}
	e := &Ensemble{Seeds: seeds, PerSeed: summaries}
	e.Quantities, e.Stats = aggregateSummaries(summaries)
	return e, nil
}

// aggregateSummaries folds per-seed summaries into across-seed
// statistics, walking Summary's numeric fields in declaration order.
func aggregateSummaries(summaries []Summary) ([]string, map[string]EnsembleStat) {
	var names []string
	stats := make(map[string]EnsembleStat)
	st := reflect.TypeOf(Summary{})
	for f := 0; f < st.NumField(); f++ {
		field := st.Field(f)
		var get func(Summary) (float64, bool)
		switch field.Type.Kind() {
		case reflect.Int:
			get = func(s Summary) (float64, bool) {
				return float64(reflect.ValueOf(s).Field(f).Int()), true
			}
		case reflect.Float64:
			get = func(s Summary) (float64, bool) {
				return reflect.ValueOf(s).Field(f).Float(), true
			}
		default:
			continue // non-numeric observations (feature names) have no CI
		}
		var xs []float64
		for _, s := range summaries {
			if v, ok := get(s); ok {
				xs = append(xs, v)
			}
		}
		names = append(names, field.Name)
		stats[field.Name] = statOf(xs)
	}
	return names, stats
}

func statOf(xs []float64) EnsembleStat {
	if len(xs) == 0 {
		return EnsembleStat{}
	}
	st := EnsembleStat{Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		st.Mean += x
		st.Min = math.Min(st.Min, x)
		st.Max = math.Max(st.Max, x)
	}
	st.Mean /= float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - st.Mean
			ss += d * d
		}
		st.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return st
}

// Render writes the across-seed table: every numeric observation with
// its mean ± 95% CI half-width and observed range.
func (e *Ensemble) Render(w io.Writer) error {
	n := len(e.Seeds)
	t := report.NewTable(
		fmt.Sprintf("Ensemble over %d seeds (%d..%d): mean ± 95%% CI, range", n, e.Seeds[0], e.Seeds[n-1]),
		"Quantity", "Mean", "±95% CI", "Min", "Max")
	for _, name := range e.Quantities {
		s := e.Stats[name]
		t.AddRow(name,
			fmt.Sprintf("%.4g", s.Mean),
			fmt.Sprintf("%.3g", s.HalfWidth95(n)),
			fmt.Sprintf("%.4g", s.Min),
			fmt.Sprintf("%.4g", s.Max))
	}
	return t.Render(w)
}
