package repro

import (
	"time"

	"repro/internal/core"
)

// Summary carries the headline quantities of the reproduction, one per
// observation of the paper, as plain numbers.
type Summary struct {
	// Campaign volume (Table I).
	Days            int
	TotalRecords    int
	FatalRecords    int
	TotalJobs       int
	DistinctJobs    int
	ResubmittedJobs int

	// Methodology (Figure 1, Obs. 1-3).
	EventsAfterFiltering      int
	FilterCompression         float64 // paper: 98.35%
	Interruptions             int     // paper: 308
	DistinctInterrupted       int     // paper: 167
	NonImpactingEventFraction float64 // Obs. 1; paper: 20.84%
	SystemTypes               int     // Obs. 2; paper: 72
	ApplicationTypes          int     // Obs. 2; paper: 8
	ApplicationEventFraction  float64 // Obs. 2; paper: 17.73%
	JobRedundantRemoved       int     // Obs. 3; paper: 72
	JobFilterCompression      float64 // Obs. 3; paper: 13.1%
	SameLocationResubmits     float64 // Obs. 3/8; paper: 57.4%

	// Failure characteristics (Obs. 4-5).
	WeibullShapeBefore, WeibullShapeAfter float64 // Table IV: 0.387 / 0.573
	MTBFRatio                             float64 // paper: ~3x
	BandFatalShare                        float64 // Obs. 5 (midplanes 32-63)
	CorrWorkload, CorrWideWorkload        float64 // Obs. 5

	// Job interruption characteristics (Obs. 6-12).
	InterruptedJobFraction float64 // paper: 0.45%
	DistinctJobFraction    float64 // paper: 1.73%
	MaxJobsPerEvent        int     // paper: 28
	SystemInterruptions    int     // paper: 206
	AppInterruptions       int     // paper: 102
	MTTIOverMTBF           float64 // Obs. 7; paper: 4.07
	SpatialFraction        float64 // Obs. 8; paper: 7.22%
	ResubRiskSystemK1      float64 // Fig. 7
	ResubRiskSystemK2      float64 // paper: 53% peak
	ResubRiskAppK3         float64 // paper: 60%
	EarlyAppFraction       float64 // Obs. 11; paper: 74.5% within 1 h
	TopCat1Feature         string  // Obs. 10; paper: size
	TopCat2Feature         string  // Obs. 11; paper: exectime
	MaxUserFailFraction    float64 // Obs. 12; paper: < 1%
}

// Summary computes the headline quantities. Artifacts whose fits fail
// (e.g. too few interruptions in a tiny campaign) leave zero values.
func (r *Report) Summary() Summary {
	a := r.analysis
	ls := &r.stats
	s := Summary{
		Days:         r.days,
		TotalRecords: ls.RASRecords,
		FatalRecords: ls.FatalRecords,
		TotalJobs:    r.jobs.Len(),
	}
	s.DistinctJobs, s.ResubmittedJobs = r.jobs.DistinctExecutables()

	s.EventsAfterFiltering = len(a.Events)
	s.FilterCompression = a.FilterStats.CompressionRatio()
	s.Interruptions = len(a.Interruptions)
	s.DistinctInterrupted = a.DistinctInterruptedJobs()

	census := a.Census()
	s.NonImpactingEventFraction = census.NonImpactingEventFraction

	cc := a.ClassificationCensus()
	s.SystemTypes = cc.SystemTypes
	s.ApplicationTypes = cc.ApplicationTypes
	s.ApplicationEventFraction = cc.ApplicationEventFraction
	s.SystemInterruptions = cc.SystemInterruptions
	s.AppInterruptions = cc.ApplicationInterruptions

	jf := a.JobFilter()
	s.JobRedundantRemoved = jf.Removed
	s.JobFilterCompression = jf.CompressionRatio
	s.SameLocationResubmits = jf.SameLocationResubmitFraction

	if fc, err := a.FailureCharacteristics(); err == nil {
		s.WeibullShapeBefore = fc.Before.Weibull.Shape
		s.WeibullShapeAfter = fc.After.Weibull.Shape
		s.MTBFRatio = fc.MTBFRatio
	}
	mc := a.MidplaneCharacteristics(32)
	s.BandFatalShare = mc.RegionFatalShare(32, 64)
	s.CorrWorkload = mc.CorrWorkload
	s.CorrWideWorkload = mc.CorrWideWorkload

	bs := a.Bursts(0)
	s.InterruptedJobFraction = bs.InterruptedJobFraction
	s.DistinctJobFraction = bs.DistinctJobFraction
	s.MaxJobsPerEvent = bs.MaxJobsPerEvent

	if ir, err := a.InterruptionRates(); err == nil {
		s.MTTIOverMTBF = ir.MTTIOverMTBF
	}
	s.SpatialFraction = a.Propagation().SpatialFraction

	rs := a.Resubmissions(3)
	if rs.MaxK >= 2 {
		s.ResubRiskSystemK1 = rs.System[1]
		s.ResubRiskSystemK2 = rs.System[2]
	}
	if rs.MaxK >= 3 {
		s.ResubRiskAppK3 = rs.Application[3]
	}
	s.EarlyAppFraction = a.EarlyInterruptionFraction(core.ClassApplication, time.Hour)

	fr := a.Features(12)
	if len(fr.System) > 0 {
		s.TopCat1Feature = fr.System[0].Name
	}
	if len(fr.Application) > 0 {
		s.TopCat2Feature = fr.Application[0].Name
	}
	s.MaxUserFailFraction = fr.MaxFailedJobFraction
	return s
}
