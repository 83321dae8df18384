package repro

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/stats"
)

// PredictorStudy evaluates the §VII failure-prediction extension over
// the campaign's filtered event stream: a null baseline, an
// alarm-everything baseline, the repeat-location chain predictor, and
// decayed-rate predictors at two thresholds.
func (r *Report) PredictorStudy() ([]predict.Result, error) {
	ps := []predict.Predictor{
		predict.NeverPredictor{},
		predict.AlwaysPredictor{},
		predict.NewChainPredictor(12 * time.Hour),
		predict.NewRatePredictor(24*time.Hour, 1.5),
		predict.NewRatePredictor(24*time.Hour, 0.75),
	}
	return predict.Compare(ps, r.analysis.Events, r.analysis.IdleEvents())
}

// RenderPrediction writes the failure-prediction study (extension of
// §VII recommendation 1).
func (r *Report) RenderPrediction(w io.Writer) error {
	results, err := r.PredictorStudy()
	if err != nil {
		return err
	}
	t := report.NewTable("Extension: location-aware failure prediction (§VII)",
		"Predictor", "Recall", "Alarm mp-hours", "Hits/alarm-day", "Avoidable actions")
	for _, res := range results {
		t.AddRow(res.Predictor,
			fmt.Sprintf("%.1f%%", 100*res.Recall),
			fmt.Sprintf("%.0f", res.AlarmMidplaneHours),
			res.HitsPerAlarmDay,
			fmt.Sprintf("%.1f%%", 100*res.AvoidableActionFraction))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w,
		"(\"avoidable actions\" = correctly predicted failures striking idle hardware: with\n"+
			" location information the proactive action can be skipped entirely — Obs. 7)")
	return err
}

// CheckpointStudy runs the checkpoint-policy simulation (extension of
// §VII recommendation 2) under the campaign's fitted failure model,
// for a job of the given length and checkpoint cost.
func (r *Report) CheckpointStudy(jobLength, ckptCost time.Duration, runs int) ([]checkpoint.Result, error) {
	fc, err := r.analysis.FailureCharacteristics()
	if err != nil {
		return nil, err
	}
	w := fc.After.Weibull
	mtbf := time.Duration(w.Mean() * float64(time.Second))
	cfg := checkpoint.Config{
		JobLength:      jobLength,
		CheckpointCost: ckptCost,
		RestartCost:    10 * time.Minute,
		Failures:       w,
		BugProb:        0.05,
		BugMean:        20 * time.Minute,
		BugFixDelay:    2 * time.Hour,
	}
	pols := []checkpoint.Policy{
		checkpoint.None(),
		checkpoint.Young(ckptCost, mtbf),
		checkpoint.Periodic(mtbf / 10),
		checkpoint.DelayedFirstHour(mtbf / 10),
	}
	return checkpoint.Sweep(cfg, pols, runs, 1)
}

// RenderCheckpointStudy writes the checkpoint-policy comparison.
func (r *Report) RenderCheckpointStudy(w io.Writer) error {
	results, err := r.CheckpointStudy(24*time.Hour, 5*time.Minute, 300)
	if err != nil {
		return err
	}
	t := report.NewTable("Extension: checkpoint policies under the fitted failure model (§VII)",
		"Policy", "Efficiency", "Failures/run", "Checkpoints/run", "Lost work", "Wasted ckpts")
	for _, res := range results {
		t.AddRow(res.Policy,
			fmt.Sprintf("%.3f", res.Efficiency),
			fmt.Sprintf("%.2f", res.MeanFailures),
			fmt.Sprintf("%.1f", res.MeanCheckpoints),
			res.MeanLostWork.Round(time.Minute).String(),
			fmt.Sprintf("%.2f", res.WastedCheckpoints))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w,
		"(24 h job, 5 min checkpoints, failure process = the campaign's after-filtering Weibull\n"+
			" fit; \"delayed\" applies Obs. 11: no checkpoint before the first hour of work)")
	return err
}

// RenderModelComparison writes an AIC-ranked comparison of the three
// classic failure-interarrival models (exponential, Weibull, lognormal)
// on the filtered event stream — extending the paper's two-model
// likelihood-ratio test.
func (r *Report) RenderModelComparison(w io.Writer) error {
	before, after := r.analysis.InterarrivalSamples()
	t := report.NewTable("Extension: interarrival model selection by AIC (lower is better)",
		"Sample", "Model", "AIC", "KS", "Fitted mean (h)")
	add := func(name string, xs []float64) {
		for _, mf := range stats.CompareModels(xs) {
			t.AddRow(name, mf.Dist.Name(), mf.AIC, mf.KS, mf.Dist.Mean()/3600)
			name = ""
		}
	}
	add("before job filtering", before)
	add("after job filtering", after)
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w,
		"(the paper's LRT compares exponential vs Weibull only; AIC adds the lognormal,\n"+
			" the third standard failure model — the exponential should rank last on both samples)")
	return err
}

// RenderEventTypes writes the ERRCODE inventory: per-type event volume,
// three-case evidence, verdict and inferred class, descending by volume.
func (r *Report) RenderEventTypes(w io.Writer) error {
	a := r.analysis
	type row struct {
		code string
		id   core.Identification
		cl   core.Classification
	}
	rows := make([]row, 0, len(a.Identification))
	for code, id := range a.Identification {
		rows = append(rows, row{a.Syms.Errcodes.Name(code), id, a.Classification[code]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].id.Events != rows[j].id.Events {
			return rows[i].id.Events > rows[j].id.Events
		}
		return rows[i].code < rows[j].code
	})
	t := report.NewTable("Extension: fatal event-type inventory",
		"ERRCODE", "Events", "C1", "C2", "C3", "Verdict", "Class", "Rule")
	max := 20
	if len(rows) < max {
		max = len(rows)
	}
	for _, rw := range rows[:max] {
		t.AddRow(rw.code, rw.id.Events, rw.id.Case1, rw.id.Case2, rw.id.Case3,
			rw.id.Verdict.String(), rw.cl.Class.String(), rw.cl.Rule.String())
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "(%d further types omitted; C1/C2/C3 are the three-case rule counts of §IV-A)\n",
		len(rows)-max)
	return err
}

// SensitivityPoint is one row of the filter-threshold sensitivity
// ablation.
type SensitivityPoint struct {
	// Window is the temporal/spatial threshold used.
	Window time.Duration
	// Events is the number of independent events the cascade leaves.
	Events int
	// Interruptions is the number of matched job interruptions.
	Interruptions int
}

// FilterSensitivity re-runs the analysis at several temporal/spatial
// window settings — the ablation behind the choice of the 5-minute
// threshold the paper inherits from Liang et al.
func (r *Report) FilterSensitivity(windows []time.Duration) ([]SensitivityPoint, error) {
	if r.fatal == nil {
		return nil, fmt.Errorf("repro: the sensitivity ablation re-runs the cascade over the FATAL records, which streaming reports do not retain")
	}
	if len(windows) == 0 {
		windows = []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute, time.Hour}
	}
	out := make([]SensitivityPoint, 0, len(windows))
	for _, win := range windows {
		cfg := core.DefaultConfig()
		cfg.Filter.TemporalWindow = win
		cfg.Filter.SpatialWindow = win
		a, err := core.AnalyzeFatal(cfg, r.fatal, r.stats.First, r.stats.Last, r.jobs)
		if err != nil {
			return nil, err
		}
		out = append(out, SensitivityPoint{
			Window:        win,
			Events:        len(a.Events),
			Interruptions: len(a.Interruptions),
		})
	}
	return out, nil
}

// RenderSensitivity writes the filter-threshold ablation.
func (r *Report) RenderSensitivity(w io.Writer) error {
	points, err := r.FilterSensitivity(nil)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation: temporal/spatial window sensitivity",
		"Window", "Events", "Interruptions")
	for _, p := range points {
		t.AddRow(p.Window.String(), p.Events, p.Interruptions)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w,
		"(larger windows merge more records into fewer events; the 5-minute setting is the\n"+
			" Liang et al. threshold the paper adopts)")
	return err
}
