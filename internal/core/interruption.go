package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/filter"
	"repro/internal/stats"
	"repro/internal/symtab"
)

// BurstStats carries the §VI-A burstiness analysis (Figure 5, Obs. 6).
type BurstStats struct {
	// PerDay is the number of interruptions in each campaign day.
	PerDay []int
	// TotalInterruptions and InterruptedJobFraction summarize volume
	// (the paper: 0.45% of jobs, 1.73% of distinct jobs).
	TotalInterruptions     int
	InterruptedJobFraction float64
	DistinctJobFraction    float64
	// SoonAfterPrevious counts interruptions occurring within Window of
	// the previous interruption, systemwide.
	SoonAfterPrevious int
	// Window is the "soon" threshold (the paper uses 1,000 seconds for
	// per-job re-interruptions).
	Window time.Duration
	// MaxPerJobStreak is the longest run of consecutive interruptions
	// suffered by one executable.
	MaxPerJobStreak int
	// MaxJobsPerEvent is the largest number of jobs one fatal event's
	// redundancy chain interrupted (the paper: one L1 cache parity
	// failure interrupted 28 jobs consecutively).
	MaxJobsPerEvent int
	// Fano is the variance-to-mean ratio of the daily series; > 1 means
	// burstier than Poisson.
	Fano float64
}

// Bursts computes Figure 5 and the burstiness statistics.
func (a *Analysis) Bursts(window time.Duration) BurstStats {
	if window <= 0 {
		window = 1000 * time.Second
	}
	bs := BurstStats{Window: window, TotalInterruptions: len(a.Interruptions)}

	// Daily series over the campaign span.
	days := a.span.Days()
	offsets := make([]float64, 0, len(a.Interruptions))
	times := make([]time.Time, 0, len(a.Interruptions))
	for _, in := range a.Interruptions {
		offsets = append(offsets, in.Job.EndTime.Sub(a.span.start).Seconds())
		times = append(times, in.Job.EndTime)
	}
	bs.PerDay = stats.DailyCounts(offsets, days)

	interrupted := a.interruptedJobs()
	if n := a.Jobs.Len(); n > 0 {
		distinct := 0
		for _, hit := range interrupted {
			distinct += b2i(hit)
		}
		bs.InterruptedJobFraction = float64(distinct) / float64(n)
	}
	if d := a.tab.Execs.Len(); d > 0 {
		bs.DistinctJobFraction = float64(a.DistinctInterruptedJobs()) / float64(d)
	}

	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	for i := 1; i < len(times); i++ {
		if times[i].Sub(times[i-1]) <= window {
			bs.SoonAfterPrevious++
		}
	}

	// Longest consecutive-interruption streak per executable.
	for e := range a.tab.Execs.Len() {
		streak := 0
		for _, p := range a.ExecRuns(symtab.ExecID(e)) {
			if a.interruptedAt[p] {
				streak++
				if streak > bs.MaxPerJobStreak {
					bs.MaxPerJobStreak = streak
				}
			} else {
				streak = 0
			}
		}
	}

	// Largest single-chain victim count: an independent event plus its
	// job-related redundant followers of the same code sharing location.
	perEvent := a.chainVictimCounts()
	for _, n := range perEvent {
		if n > bs.MaxJobsPerEvent {
			bs.MaxJobsPerEvent = n
		}
	}

	daily := make([]float64, len(bs.PerDay))
	for i, n := range bs.PerDay {
		daily[i] = float64(n)
	}
	if m := stats.Mean(daily); m > 0 {
		bs.Fano = stats.Variance(daily) / m
	}
	return bs
}

// chainVictimCounts attributes each job-redundant event to its chain
// head and counts total interrupted jobs per head: the "one system
// failure consecutively interrupted 28 jobs" statistic.
func (a *Analysis) chainVictimCounts() map[*filter.Event]int {
	redundant := make(map[*filter.Event]bool, len(a.JobRedundant))
	for _, ev := range a.JobRedundant {
		redundant[ev] = true
	}
	counts := make(map[*filter.Event]int)
	// Walk events in time order; a redundant event joins the chain of
	// the most recent same-code head. IDs are dense, so the per-code head
	// table is a plain slice.
	headByCode := make([]*filter.Event, a.tab.Errcodes.Len())
	for _, ev := range a.Events {
		n := len(a.interByEvent[ev])
		if n == 0 {
			continue
		}
		if redundant[ev] {
			if head := headByCode[ev.Code]; head != nil {
				counts[head] += n
				continue
			}
		}
		counts[ev] += n
		headByCode[ev.Code] = ev
	}
	return counts
}

// InterruptionRates carries the §VI-B analysis (Figure 6, Table V,
// Obs. 7): interruption interarrival fits by cause, and the MTTI/MTBF
// comparison.
type InterruptionRates struct {
	// System and Application are the Weibull/exponential fits for the
	// two interruption categories.
	System, Application stats.InterarrivalFit
	// SystemECDF and ApplicationECDF are the empirical curves of
	// Figure 6.
	SystemECDF, ApplicationECDF *stats.ECDF
	// MTTIOverMTBF is the system-interruption mean over the independent
	// failure mean (the paper: 4.07).
	MTTIOverMTBF float64
	// AppOverSystemMTTI is Application mean over System mean (the paper:
	// about 2x).
	AppOverSystemMTTI float64
}

// InterruptionRates fits interruption interarrival distributions by
// cause and relates MTTI to MTBF.
func (a *Analysis) InterruptionRates() (InterruptionRates, error) {
	var ir InterruptionRates
	sys, app := a.InterruptionsByClass()
	sysGaps := interruptionGaps(sys)
	appGaps := interruptionGaps(app)
	var err error
	if ir.System, err = stats.FitInterarrivals(sysGaps); err != nil {
		return InterruptionRates{}, fmt.Errorf("core: system interruption fit: %w", err)
	}
	if ir.Application, err = stats.FitInterarrivals(appGaps); err != nil {
		return InterruptionRates{System: ir.System}, fmt.Errorf("core: application interruption fit: %w", err)
	}
	ir.SystemECDF = stats.NewECDF(sysGaps)
	ir.ApplicationECDF = stats.NewECDF(appGaps)
	if fc, err := a.FailureCharacteristics(); err == nil && fc.After.Weibull.Mean() > 0 {
		ir.MTTIOverMTBF = ir.System.Weibull.Mean() / fc.After.Weibull.Mean()
	}
	if m := ir.System.Weibull.Mean(); m > 0 {
		ir.AppOverSystemMTTI = ir.Application.Weibull.Mean() / m
	}
	return ir, nil
}

func interruptionGaps(ins []Interruption) []float64 {
	times := make([]time.Time, 0, len(ins))
	for _, in := range ins {
		times = append(times, in.Job.EndTime)
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	var out []float64
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1]).Seconds()
		if gap > 0 {
			out = append(out, gap)
		}
	}
	return out
}
