package repro

import (
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/simulate"
)

// PolicyStats is the per-policy headline of a matrix run: the
// co-analysis quantities that answer "did the allocation policy change
// the interruption outcome?" on the shared fault-candidate stream.
type PolicyStats struct {
	// Jobs is the total job count (resubmissions shift it per policy).
	Jobs int
	// Interruptions is the co-analysis interruption-event count.
	Interruptions int
	// DistinctInterrupted counts distinct interrupted jobs.
	DistinctInterrupted int
	// SystemInterruptions and AppInterruptions split interruptions by
	// identified cause class.
	SystemInterruptions int
	AppInterruptions    int
	// MTBFHours is the post-filter mean time between failures in hours.
	MTBFHours float64
	// SamePartResub is the same-location resubmission fraction (the
	// paper measured 57.44% under Intrepid's affinity).
	SamePartResub float64
	// IdleFaultFraction is the oracle fraction of interrupting-capable
	// faults that struck idle midplanes — the placement-dependent
	// vulnerability the policies trade against each other.
	IdleFaultFraction float64
}

// PolicyOutcome bundles one policy's analyzed campaign from RunMatrix.
type PolicyOutcome struct {
	// Policy is the sched registry name.
	Policy string
	// Report is the full co-analysis of that policy's logs.
	Report *Report
	// Stats is the comparison headline.
	Stats PolicyStats
}

// RunMatrix simulates one campaign per registered scheduling policy —
// identical workload, identical pre-drawn ground-truth fault-candidate
// stream — and runs the paper's co-analysis over each, in sorted
// policy-name order. This is the counterfactual experiment the paper
// could not run on the real machine.
func RunMatrix(cfg Config) ([]PolicyOutcome, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("repro: non-positive Days %d", cfg.Days)
	}
	runs, err := simulate.RunMatrix(simConfig(cfg), cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]PolicyOutcome, 0, len(runs))
	for _, run := range runs {
		rep, err := analyzeCampaign(cfg, run.Campaign)
		if err != nil {
			return nil, fmt.Errorf("repro: policy %s: %w", run.Policy, err)
		}
		out = append(out, PolicyOutcome{Policy: run.Policy, Report: rep, Stats: rep.PolicyStats()})
	}
	return out, nil
}

// PolicyStats extracts the cross-policy comparison headline from an
// analyzed campaign. IdleFaultFraction is zero without an oracle
// (externally loaded logs).
func (r *Report) PolicyStats() PolicyStats {
	a := r.analysis
	s := PolicyStats{
		Jobs:                r.jobs.Len(),
		Interruptions:       len(a.Interruptions),
		DistinctInterrupted: a.DistinctInterruptedJobs(),
	}
	cc := a.ClassificationCensus()
	s.SystemInterruptions = cc.SystemInterruptions
	s.AppInterruptions = cc.ApplicationInterruptions
	if fc, err := a.FailureCharacteristics(); err == nil {
		s.MTBFHours = fc.After.SampleMean / 3600
	}
	s.SamePartResub = a.JobFilter().SameLocationResubmitFraction
	if r.truth != nil {
		s.IdleFaultFraction = r.truth.IdleFaultFraction()
	}
	return s
}

// RenderPolicyComparison writes the cross-policy table of a matrix
// run: one row per policy, directly comparable because every row faced
// the identical workload and fault-candidate stream.
func RenderPolicyComparison(w io.Writer, outcomes []PolicyOutcome) error {
	t := report.NewTable(
		"Policy matrix: co-analysis outcomes on the identical workload and fault-candidate stream",
		"Policy", "Jobs", "Interruptions", "Distinct", "System", "App",
		"MTBF(h)", "SamePartResub", "IdleFaultFrac")
	for _, o := range outcomes {
		s := o.Stats
		t.AddRow(o.Policy, s.Jobs, s.Interruptions, s.DistinctInterrupted,
			s.SystemInterruptions, s.AppInterruptions,
			s.MTBFHours, s.SamePartResub, s.IdleFaultFraction)
	}
	return t.Render(w)
}
