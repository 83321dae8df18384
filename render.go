package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/raslog"
	"repro/internal/report"
	"repro/internal/stats"
)

// renderSteps are RenderAll's artifacts in paper order, each with the
// title its skip note names.
var renderSteps = [...]struct {
	name   string
	render func(*Report, io.Writer) error
}{
	{"Table I", (*Report).RenderTableI},
	{"Table II", (*Report).RenderTableII},
	{"Table III", (*Report).RenderTableIII},
	{"pipeline", (*Report).RenderPipeline},
	{"identification", (*Report).RenderIdentification},
	{"classification", (*Report).RenderClassification},
	{"job filter", (*Report).RenderJobFilter},
	{"Figure 2", (*Report).RenderFigure2},
	{"Figure 3", (*Report).RenderFigure3},
	{"Table IV", (*Report).RenderTableIV},
	{"midplane fits", (*Report).RenderMidplaneFits},
	{"Figure 4", (*Report).RenderFigure4},
	{"Figure 5", (*Report).RenderFigure5},
	{"Figure 6", (*Report).RenderFigure6},
	{"Table V", (*Report).RenderTableV},
	{"propagation", (*Report).RenderPropagation},
	{"Figure 7", (*Report).RenderFigure7},
	{"Table VI", (*Report).RenderTableVI},
	{"features", (*Report).RenderFeatures},
	{"event types", (*Report).RenderEventTypes},
	{"model comparison", (*Report).RenderModelComparison},
	{"prediction study", (*Report).RenderPrediction},
	{"checkpoint study", (*Report).RenderCheckpointStudy},
}

// RenderAll writes every table and figure of the paper's evaluation, in
// paper order. Artifacts that cannot be computed on the given data
// (e.g. too few application-error interruptions in a short campaign to
// fit their interarrival distribution) are skipped with a note instead
// of aborting the whole report; only write failures propagate. The
// artifacts render on r.workers goroutines (one worker renders them in
// place, one after another), each into its own buffer, and are written
// in paper order once all have rendered; the output is the same at
// every worker count.
func (r *Report) RenderAll(w io.Writer) error {
	var bufs [len(renderSteps)]bytes.Buffer
	var errs [len(renderSteps)]error
	// Every render error is a skip note, never a failure of the fan-out,
	// so ForEach itself returns nil.
	_ = parallel.ForEach(context.Background(), r.workers, len(renderSteps), func(i int) error {
		errs[i] = renderSteps[i].render(r, &bufs[i])
		return nil
	})
	for i, step := range renderSteps {
		if err := writeStep(w, step.name, bufs[i].Bytes(), errs[i]); err != nil {
			return err
		}
	}
	return nil
}

// writeStep writes one rendered artifact and its blank-line separator,
// or the note that it was skipped for renderErr.
func writeStep(w io.Writer, name string, out []byte, renderErr error) error {
	if renderErr != nil {
		_, err := fmt.Fprintf(w, "[%s skipped: %v]\n\n", name, renderErr)
		return err
	}
	if _, err := w.Write(out); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderTableI writes the log-summary table (Table I).
func (r *Report) RenderTableI(w io.Writer) error {
	start, end := r.analysis.Span()
	ls := &r.stats
	t := report.NewTable("Table I: summary of the RAS log and job log",
		"Log", "Days", "Start", "End", "Size", "Records")
	t.AddRow("RAS", r.days, start.Format("2006-01-02"), end.Format("2006-01-02"),
		byteSize(ls.RASBytes), ls.RASRecords)
	t.AddRow("Job", r.days, start.Format("2006-01-02"), end.Format("2006-01-02"),
		byteSize(r.jobs.MarshaledBytes()), r.jobs.Len())
	return t.Render(w)
}

func byteSize(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// RenderTableII writes one example RAS record (Table II): the first
// FATAL record in (EventTime, RecID) order.
func (r *Report) RenderTableII(w io.Writer) error {
	ls := &r.stats
	if !ls.HasFatal {
		return fmt.Errorf("repro: no FATAL records in the RAS log")
	}
	rec := ls.FirstFatal
	t := report.NewTable("Table II: example RAS event record", "Field", "Value")
	t.AddRow("RECID", rec.RecID)
	t.AddRow("MSG_ID", rec.MsgID)
	t.AddRow("COMPONENT", rec.Component.String())
	t.AddRow("SUBCOMPONENT", rec.SubComponent)
	t.AddRow("ERRCODE", rec.ErrCode)
	t.AddRow("SEVERITY", rec.Severity.String())
	t.AddRow("EVENT_TIME", raslog.FormatEventTime(rec.EventTime))
	t.AddRow("FLAGS", rec.Flags)
	t.AddRow("LOCATION", rec.Location)
	t.AddRow("SERIALNUMBER", rec.Serial)
	t.AddRow("MESSAGE", rec.Message)
	return t.Render(w)
}

// RenderTableIII writes one example job record (Table III).
func (r *Report) RenderTableIII(w io.Writer) error {
	jobs := r.jobs.All()
	if len(jobs) == 0 {
		return fmt.Errorf("repro: empty job log")
	}
	j := jobs[0]
	t := report.NewTable("Table III: example job record", "Field", "Value")
	t.AddRow("Job ID", j.ID)
	t.AddRow("Job Name", j.Name)
	t.AddRow("Execution File", j.ExecFile)
	t.AddRow("Queuing Time", fmt.Sprintf("%.2f", float64(j.QueueTime.UnixNano())/1e9))
	t.AddRow("Starting Time", fmt.Sprintf("%.2f", float64(j.StartTime.UnixNano())/1e9))
	t.AddRow("End Time", fmt.Sprintf("%.2f", float64(j.EndTime.UnixNano())/1e9))
	t.AddRow("Location", j.Partition.String())
	t.AddRow("User", j.User)
	t.AddRow("Project", j.Project)
	return t.Render(w)
}

// RenderPipeline writes the filtering-cascade statistics (Figure 1's
// numbers: 33,370 -> 549 -> 477 on Intrepid).
func (r *Report) RenderPipeline(w io.Writer) error {
	st := r.analysis.FilterStats
	jf := r.analysis.JobFilter()
	t := report.NewTable("Methodology pipeline (Figure 1)", "Stage", "Events", "Note")
	t.AddRow("raw FATAL records", st.Input, "")
	t.AddRow("after temporal filtering", st.AfterTemporal, "same location+code within 5 min")
	t.AddRow("after spatial filtering", st.AfterSpatial, "same code across locations")
	t.AddRow("after causality filtering", st.AfterCausality,
		fmt.Sprintf("compression %.2f%%", 100*st.CompressionRatio()))
	t.AddRow("after job-related filtering", len(r.analysis.Independent),
		fmt.Sprintf("removed %d (%.1f%%)", jf.Removed, 100*jf.CompressionRatio))
	return t.Render(w)
}

// RenderIdentification writes the Obs. 1 census.
func (r *Report) RenderIdentification(w io.Writer) error {
	c := r.analysis.Census()
	t := report.NewTable("Identification of interruption-related fatal events (Obs. 1)",
		"Category", "Types", "Note")
	t.AddRow("interruption-related", c.TypesInterruptionRelated, "cases 1+2 only")
	t.AddRow("nonfatal for applications", c.TypesNonFatal, "cases 2+3 only")
	t.AddRow("undetermined (pessimistic)", c.TypesUndetermined, "case 2 only, or conflict")
	t.AddRow("non-impacting events", "", fmt.Sprintf("%.2f%% of fatal events (paper: 20.84%%)",
		100*c.NonImpactingEventFraction))
	return t.Render(w)
}

// RenderClassification writes the Obs. 2 census.
func (r *Report) RenderClassification(w io.Writer) error {
	cc := r.analysis.ClassificationCensus()
	t := report.NewTable("System failures vs application errors (Obs. 2)", "Quantity", "Value", "Paper")
	t.AddRow("system-failure types", cc.SystemTypes, 72)
	t.AddRow("application-error types", cc.ApplicationTypes, 8)
	t.AddRow("application event fraction", fmt.Sprintf("%.2f%%", 100*cc.ApplicationEventFraction), "17.73%")
	t.AddRow("system interruptions", cc.SystemInterruptions, 206)
	t.AddRow("application interruptions", cc.ApplicationInterruptions, 102)
	return t.Render(w)
}

// RenderJobFilter writes the Obs. 3 statistics.
func (r *Report) RenderJobFilter(w io.Writer) error {
	jf := r.analysis.JobFilter()
	t := report.NewTable("Job-related filtering (Obs. 3)", "Quantity", "Value", "Paper")
	t.AddRow("input events", jf.Input, 549)
	t.AddRow("job-related redundant", jf.Removed, 72)
	t.AddRow("compression", fmt.Sprintf("%.1f%%", 100*jf.CompressionRatio), "13.1%")
	t.AddRow("same-location resubmissions", fmt.Sprintf("%.1f%%", 100*jf.SameLocationResubmitFraction), "57.4%")
	return t.Render(w)
}

// RenderFigure3 plots the interarrival ECDFs before and after
// job-related filtering (Figure 3).
func (r *Report) RenderFigure3(w io.Writer) error {
	fc, err := r.analysis.FailureCharacteristics()
	if err != nil {
		return err
	}
	xs, ys := fc.BeforeECDF.Points()
	lx, ly := report.LogXPoints(xs, ys)
	if err := report.LinePlot(w, "Figure 3a: ECDF of fatal-event interarrival, with job-related redundancy (x = log10 seconds)", lx, ly, 70, 14); err != nil {
		return err
	}
	xs, ys = fc.AfterECDF.Points()
	lx, ly = report.LogXPoints(xs, ys)
	return report.LinePlot(w, "Figure 3b: ECDF without job-related redundancy (x = log10 seconds)", lx, ly, 70, 14)
}

// RenderTableIV writes the Weibull comparison before/after job-related
// filtering (Table IV).
func (r *Report) RenderTableIV(w io.Writer) error {
	fc, err := r.analysis.FailureCharacteristics()
	if err != nil {
		return err
	}
	t := report.NewTable("Table IV: Weibull fits for fatal-event interarrival",
		"Sample", "Shape", "Scale", "Mean", "Variance", "LRT p", "KS(W)", "KS(E)")
	add := func(name string, f stats.InterarrivalFit) {
		t.AddRow(name, f.Weibull.Shape, f.Weibull.Scale, f.Weibull.Mean(),
			f.Weibull.Variance(), f.LRT.PValue, f.KSWeibull, f.KSExponential)
	}
	add("before job-related filtering", fc.Before)
	add("after job-related filtering", fc.After)
	t.AddRow("MTBF ratio (after/before)", fc.MTBFRatio, "", "", "", "", "", "")
	return t.Render(w)
}

// RenderFigure4 writes the three per-midplane series (Figure 4).
func (r *Report) RenderFigure4(w io.Writer) error {
	mc := r.analysis.MidplaneCharacteristics(32)
	labels := make([]string, bgp.NumMidplanes)
	fatal := make([]float64, bgp.NumMidplanes)
	for i := range labels {
		labels[i] = fmt.Sprintf("mp%02d", i)
		fatal[i] = float64(mc.FatalEvents[i])
	}
	if err := report.BarChart(w, "Figure 4a: independent fatal events per midplane", labels, fatal, 50); err != nil {
		return err
	}
	if err := report.BarChart(w, "Figure 4b: workload (busy seconds) per midplane", labels, mc.WorkloadSec[:], 50); err != nil {
		return err
	}
	if err := report.BarChart(w, "Figure 4c: wide-job workload (>= 32 midplanes) per midplane", labels, mc.WideWorkloadSec[:], 50); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "corr(fatal, workload) = %.3f; corr(fatal, wide workload) = %.3f (Obs. 5)\n",
		mc.CorrWorkload, mc.CorrWideWorkload)
	return err
}

// RenderFigure5 plots interruptions per day (Figure 5).
func (r *Report) RenderFigure5(w io.Writer) error {
	bs := r.analysis.Bursts(0)
	xs := make([]float64, len(bs.PerDay))
	ys := make([]float64, len(bs.PerDay))
	for i, n := range bs.PerDay {
		xs[i] = float64(i)
		ys[i] = float64(n)
	}
	if err := report.LinePlot(w, "Figure 5: interruptions per day", xs, ys, 70, 12); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"interrupted jobs: %.2f%% of jobs, %.2f%% of distinct jobs; Fano factor %.2f; max chain victims %d (Obs. 6)\n",
		100*bs.InterruptedJobFraction, 100*bs.DistinctJobFraction, bs.Fano, bs.MaxJobsPerEvent)
	return err
}

// RenderFigure6 plots interruption-interarrival ECDFs by cause
// (Figure 6).
func (r *Report) RenderFigure6(w io.Writer) error {
	ir, err := r.analysis.InterruptionRates()
	if err != nil {
		return err
	}
	xs, ys := ir.SystemECDF.Points()
	lx, ly := report.LogXPoints(xs, ys)
	if err := report.LinePlot(w, "Figure 6a: ECDF of interruption interarrival, system failures (x = log10 s)", lx, ly, 70, 12); err != nil {
		return err
	}
	xs, ys = ir.ApplicationECDF.Points()
	lx, ly = report.LogXPoints(xs, ys)
	return report.LinePlot(w, "Figure 6b: ECDF of interruption interarrival, application errors (x = log10 s)", lx, ly, 70, 12)
}

// RenderTableV writes the interruption Weibull fits (Table V).
func (r *Report) RenderTableV(w io.Writer) error {
	ir, err := r.analysis.InterruptionRates()
	if err != nil {
		return err
	}
	t := report.NewTable("Table V: Weibull fits for job-interruption interarrival",
		"Cause", "Shape", "Scale", "Mean", "Variance")
	t.AddRow("system failures", ir.System.Weibull.Shape, ir.System.Weibull.Scale,
		ir.System.Weibull.Mean(), ir.System.Weibull.Variance())
	t.AddRow("application errors", ir.Application.Weibull.Shape, ir.Application.Weibull.Scale,
		ir.Application.Weibull.Mean(), ir.Application.Weibull.Variance())
	t.AddRow("MTTI/MTBF", ir.MTTIOverMTBF, "", "", "(paper: 4.07; Obs. 7)")
	return t.Render(w)
}

// RenderPropagation writes the Obs. 8 statistics.
func (r *Report) RenderPropagation(w io.Writer) error {
	ps := r.analysis.Propagation()
	t := report.NewTable("Failure propagation (Obs. 8)", "Quantity", "Value", "Paper")
	t.AddRow("interrupting events", ps.InterruptingEvents, "")
	t.AddRow("spatially propagating", ps.SpatialEvents, "")
	t.AddRow("spatial fraction", fmt.Sprintf("%.2f%%", 100*ps.SpatialFraction), "7.22%")
	t.AddRow("propagating codes", fmt.Sprintf("%v", ps.SpatialCodes), "script error, CiodHungProxy")
	t.AddRow("temporal (job-redundant) events", ps.TemporalEvents, "")
	return t.Render(w)
}

// RenderFigure7 writes the resubmission-risk bars (Figure 7).
func (r *Report) RenderFigure7(w io.Writer) error {
	rs := r.analysis.Resubmissions(3)
	labels := make([]string, 0, 2*rs.MaxK)
	values := make([]float64, 0, 2*rs.MaxK)
	for k := 1; k <= rs.MaxK; k++ {
		labels = append(labels, fmt.Sprintf("category1 k=%d (n=%d)", k, rs.SystemN[k]))
		values = append(values, rs.System[k])
	}
	for k := 1; k <= rs.MaxK; k++ {
		labels = append(labels, fmt.Sprintf("category2 k=%d (n=%d)", k, rs.ApplicationN[k]))
		values = append(values, rs.Application[k])
	}
	if err := report.BarChart(w, "Figure 7: P(interruption | k consecutive prior interruptions)", labels, values, 40); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "interruptions without k>=2 history: %.1f%% (paper: 83.77%%; Obs. 9)\n",
		100*rs.UncoveredFraction)
	return err
}

// RenderTableVI writes the size × runtime vulnerability matrix
// (Table VI).
func (r *Report) RenderTableVI(w io.Writer) error {
	vt := r.analysis.Vulnerability()
	header := []string{"Size"}
	for j, lo := range vt.BinEdges {
		if j+1 < len(vt.BinEdges) {
			header = append(header, fmt.Sprintf("%.0f-%.0fs", lo, vt.BinEdges[j+1]))
		} else {
			header = append(header, fmt.Sprintf(">=%.0fs", lo))
		}
	}
	header = append(header, "sum:proportion")
	t := report.NewTable("Table VI: system-related interruptions / total jobs by size and execution time", header...)
	for i, size := range vt.Sizes {
		row := []interface{}{fmt.Sprintf("%d midplanes", size)}
		for j := range vt.BinEdges {
			c := vt.Cells[i][j]
			row = append(row, fmt.Sprintf("%d/%d", c.Interrupted, c.Total))
		}
		rt := vt.RowTotals[i]
		row = append(row, fmt.Sprintf("%d/%d=%.2f%%", rt.Interrupted, rt.Total, 100*rt.Proportion()))
		t.AddRow(row...)
	}
	row := []interface{}{"sum:proportion"}
	for j := range vt.BinEdges {
		c := vt.ColTotals[j]
		row = append(row, fmt.Sprintf("%d/%d=%.2f%%", c.Interrupted, c.Total, 100*c.Proportion()))
	}
	row = append(row, fmt.Sprintf("%d/%d=%.2f%%", vt.Grand.Interrupted, vt.Grand.Total, 100*vt.Grand.Proportion()))
	t.AddRow(row...)
	return t.Render(w)
}

// RenderFeatures writes the gain-ratio ranking and suspicious-entity
// statistics (Obs. 10-12).
func (r *Report) RenderFeatures(w io.Writer) error {
	fr := r.analysis.Features(12)
	t := report.NewTable("Feature ranking by information gain ratio (Obs. 10-12)",
		"Rank", "Category 1 (system)", "GainRatio", "Category 2 (application)", "GainRatio")
	for i := range fr.System {
		t.AddRow(i+1, fr.System[i].Name, fr.System[i].Score.Ratio,
			fr.Application[i].Name, fr.Application[i].Score.Ratio)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	early := r.analysis.EarlyInterruptionFraction(core.ClassApplication, 3600e9)
	_, err := fmt.Fprintf(w,
		"suspicious users: %d covering %.1f%% of interruptions; suspicious projects: %d covering %.1f%%\n"+
			"max per-user failed-job fraction: %.2f%% (Obs. 12)\n"+
			"application interruptions within 1 h: %.1f%% (paper: 74.5%%; Obs. 11)\n",
		len(fr.SuspiciousUsers), 100*fr.SuspiciousUserShare,
		len(fr.SuspiciousProjects), 100*fr.SuspiciousProjectShare,
		100*fr.MaxFailedJobFraction, 100*early)
	return err
}

// RenderFigure2 writes concrete instances of the paper's Figure 2: how
// an application error is identified by following an executable across
// locations while the abandoned location runs clean.
func (r *Report) RenderFigure2(w io.Writer) error {
	examples := r.analysis.RelocationExamples(3)
	if len(examples) == 0 {
		return fmt.Errorf("repro: no relocation examples in this campaign")
	}
	if _, err := fmt.Fprintln(w, "Figure 2: identifying application errors by relocation"); err != nil {
		return err
	}
	for i, ex := range examples {
		_, err := fmt.Fprintf(w,
			"  example %d: %s\n"+
				"    executable   %s\n"+
				"    interrupted  %s on %s\n"+
				"    resubmitted, interrupted again %s on %s\n"+
				"    meanwhile    job %d ran clean on %s (%s..%s)\n"+
				"    => the error follows the code, not the location: application error\n",
			i+1, ex.Code,
			ex.Exec,
			ex.First.Job.EndTime.Format("2006-01-02 15:04"), ex.First.Job.Partition,
			ex.Second.Job.EndTime.Format("2006-01-02 15:04"), ex.Second.Job.Partition,
			ex.CleanJob.ID, ex.CleanJob.Partition,
			ex.CleanJob.StartTime.Format("01-02 15:04"), ex.CleanJob.EndTime.Format("01-02 15:04"))
		if err != nil {
			return err
		}
	}
	return nil
}

// RenderMidplaneFits writes the §V-B midplane-level fit census.
func (r *Report) RenderMidplaneFits(w io.Writer) error {
	c := r.analysis.MidplaneFits(5)
	t := report.NewTable("Midplane-level failure interarrival fits (§V-B)", "Quantity", "Value")
	t.AddRow("midplanes with >= 5 independent events", c.Fitted)
	t.AddRow("Weibull preferred by LRT", c.WeibullPreferred)
	t.AddRow("shape < 1 (decreasing hazard)", c.ShapeBelowOne)
	t.AddRow("mean fitted shape", c.MeanShape)
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w,
		"(the paper: \"Weibull distribution still fits midplane-level failure interarrival well\")")
	return err
}
