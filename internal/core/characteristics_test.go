package core

import (
	"testing"
	"time"

	"repro/internal/bgp"
)

func TestFailureCharacteristics(t *testing.T) {
	_, a := campaign(t)
	fc, err := a.FailureCharacteristics()
	if err != nil {
		t.Fatal(err)
	}
	// Weibull beats exponential on both samples (Obs. 4 / Fig. 3).
	if !fc.Before.WeibullPreferred() {
		t.Errorf("before-filter: Weibull not preferred (p=%v, KS %v vs %v)",
			fc.Before.LRT.PValue, fc.Before.KSWeibull, fc.Before.KSExponential)
	}
	if !fc.After.WeibullPreferred() {
		t.Errorf("after-filter: Weibull not preferred (p=%v)", fc.After.LRT.PValue)
	}
	// Decreasing hazard rate both before and after (shape < 1), with the
	// after-filter shape higher (Table IV: 0.387 -> 0.573).
	if fc.Before.Weibull.Shape >= 1 {
		t.Errorf("before shape = %v, want < 1", fc.Before.Weibull.Shape)
	}
	if fc.After.Weibull.Shape >= 1 {
		t.Errorf("after shape = %v, want < 1", fc.After.Weibull.Shape)
	}
	if fc.After.Weibull.Shape <= fc.Before.Weibull.Shape {
		t.Errorf("shape did not increase after job filtering: %v -> %v",
			fc.Before.Weibull.Shape, fc.After.Weibull.Shape)
	}
	// MTBF grows substantially after job-related filtering (paper: ~3x).
	if fc.MTBFRatio <= 1.05 {
		t.Errorf("MTBF ratio = %v, want > 1 (paper ~3x)", fc.MTBFRatio)
	}
	if fc.BeforeECDF.Len() == 0 || fc.AfterECDF.Len() == 0 {
		t.Error("empty ECDFs")
	}
}

func TestMidplaneCharacteristics(t *testing.T) {
	_, a := campaign(t)
	mc := a.MidplaneCharacteristics(32)
	// Obs. 5: the wide-job region (0-indexed 32..63) carries the largest
	// share of fatal events although raw workload peaks elsewhere.
	bandFatal := mc.RegionFatalShare(32, 64)
	if bandFatal < 0.40 {
		t.Errorf("band fatal share = %.3f, want >= 0.40", bandFatal)
	}
	// Raw workload is NOT concentrated in the band (small jobs live
	// outside it).
	bandWork := regionWorkloadShare(mc.WorkloadSec, 32, 64)
	if bandWork > 0.55 {
		t.Errorf("band raw workload share = %.3f; should not dominate", bandWork)
	}
	// Wide-job workload IS concentrated in the band.
	bandWide := regionWorkloadShare(mc.WideWorkloadSec, 32, 64)
	if bandWide < bandWork {
		t.Errorf("band wide-workload share %.3f not above raw share %.3f", bandWide, bandWork)
	}
	// Fatal counts correlate better with wide-job workload than with raw
	// workload (the crux of Obs. 5).
	if !(mc.CorrWideWorkload > mc.CorrWorkload) {
		t.Errorf("corr(fatal, wide)=%.3f not above corr(fatal, raw)=%.3f",
			mc.CorrWideWorkload, mc.CorrWorkload)
	}
	// Top midplanes come from the band.
	inBand := 0
	for _, mp := range mc.TopMidplanes[:3] {
		if mp >= 32 && mp < 64 {
			inBand++
		}
	}
	if inBand < 2 {
		t.Errorf("top-3 midplanes %v: want >= 2 in the band", mc.TopMidplanes[:3])
	}
}

func TestMidplaneInterarrivalFit(t *testing.T) {
	_, a := campaign(t)
	mc := a.MidplaneCharacteristics(32)
	mp := mc.TopMidplanes[0]
	fit, err := a.MidplaneInterarrivalFit(mp)
	if err != nil {
		t.Fatalf("fit on hottest midplane %d: %v", mp, err)
	}
	if fit.N < 2 {
		t.Errorf("fit N = %d", fit.N)
	}
	if fit.Weibull.Shape <= 0 {
		t.Errorf("bad shape %v", fit.Weibull.Shape)
	}
	if _, err := a.MidplaneInterarrivalFit(-1); err == nil {
		t.Error("negative midplane accepted")
	}
}

func TestBursts(t *testing.T) {
	_, a := campaign(t)
	bs := a.Bursts(0)
	if bs.Window != 1000*time.Second {
		t.Errorf("default window = %v", bs.Window)
	}
	if bs.TotalInterruptions == 0 {
		t.Fatal("no interruptions")
	}
	// Interruptions are rare: well under 5% of jobs (paper: 0.45%).
	if bs.InterruptedJobFraction <= 0 || bs.InterruptedJobFraction > 0.05 {
		t.Errorf("interrupted job fraction = %v", bs.InterruptedJobFraction)
	}
	if bs.DistinctJobFraction <= bs.InterruptedJobFraction {
		t.Errorf("distinct fraction %v should exceed job fraction %v (paper: 1.73%% vs 0.45%%)",
			bs.DistinctJobFraction, bs.InterruptedJobFraction)
	}
	// Bursty: daily counts overdispersed vs Poisson, and re-interruptions
	// soon after previous ones exist (Obs. 6).
	if bs.Fano <= 1 {
		t.Errorf("Fano factor = %v, want > 1 (bursty)", bs.Fano)
	}
	if bs.SoonAfterPrevious == 0 {
		t.Error("no interruptions soon after previous ones")
	}
	if bs.MaxPerJobStreak < 2 {
		t.Errorf("max per-job streak = %d, want >= 2", bs.MaxPerJobStreak)
	}
	if bs.MaxJobsPerEvent < 2 {
		t.Errorf("max jobs per failure chain = %d, want >= 2 (paper: 28)", bs.MaxJobsPerEvent)
	}
	// Daily series sums to the interruption count (within the campaign).
	sum := 0
	for _, n := range bs.PerDay {
		sum += n
	}
	if sum > bs.TotalInterruptions {
		t.Errorf("daily sum %d exceeds total %d", sum, bs.TotalInterruptions)
	}
}

func TestInterruptionRates(t *testing.T) {
	_, a := campaign(t)
	ir, err := a.InterruptionRates()
	if err != nil {
		t.Fatal(err)
	}
	// Table V: Weibull fits with shape < 1 for both causes.
	if ir.System.Weibull.Shape >= 1 || ir.Application.Weibull.Shape >= 1 {
		t.Errorf("shapes = %v / %v, want < 1", ir.System.Weibull.Shape, ir.Application.Weibull.Shape)
	}
	if !ir.System.WeibullPreferred() {
		t.Errorf("system: Weibull not preferred (p=%v)", ir.System.LRT.PValue)
	}
	// Obs. 7: interruption rate well below failure rate.
	if ir.MTTIOverMTBF <= 1 {
		t.Errorf("MTTI/MTBF = %v, want > 1 (paper: 4.07)", ir.MTTIOverMTBF)
	}
	// App-error MTTI above system MTTI (paper: ~2x).
	if ir.AppOverSystemMTTI <= 1 {
		t.Errorf("app/system MTTI = %v, want > 1", ir.AppOverSystemMTTI)
	}
}

func TestPropagation(t *testing.T) {
	_, a := campaign(t)
	ps := a.Propagation()
	if ps.InterruptingEvents == 0 {
		t.Fatal("no interrupting events")
	}
	// Obs. 8: spatial propagation is rare (paper: 7.22%).
	if ps.SpatialFraction > 0.25 {
		t.Errorf("spatial fraction = %.3f, want small", ps.SpatialFraction)
	}
	if ps.SpatialEvents > 0 && len(ps.SpatialCodes) == 0 {
		t.Error("spatial events but no codes listed")
	}
	// The shared-file-system codes drive spatial propagation when present.
	for _, c := range ps.SpatialCodes {
		if c == "" {
			t.Error("empty spatial code")
		}
	}
	if ps.TemporalEvents == 0 {
		t.Error("no temporal propagation (job-related redundancy) observed")
	}
}

func TestResubmissions(t *testing.T) {
	_, a := campaign(t)
	rs := a.Resubmissions(3)
	if rs.MaxK != 3 {
		t.Fatalf("MaxK = %d", rs.MaxK)
	}
	// Fig. 7: resubmissions after an interruption are far riskier than
	// fresh submissions; with k >= 1 the probability is substantial.
	if rs.SystemN[1] == 0 && rs.ApplicationN[1] == 0 {
		t.Fatal("no k=1 resubmissions observed")
	}
	base := float64(len(a.Interruptions)) / float64(a.Jobs.Len())
	if rs.SystemN[1] > 0 && rs.System[1] < 3*base {
		t.Errorf("P(interrupt|k=1,system) = %.3f not well above base %.4f", rs.System[1], base)
	}
	if rs.UncoveredFraction <= 0.3 || rs.UncoveredFraction > 1 {
		t.Errorf("uncovered fraction = %.3f (paper: 83.77%%)", rs.UncoveredFraction)
	}
	for k := 1; k <= 3; k++ {
		if rs.System[k] < 0 || rs.System[k] > 1 || rs.Application[k] < 0 || rs.Application[k] > 1 {
			t.Errorf("probabilities out of range at k=%d", k)
		}
	}
}

func TestVulnerabilityTable(t *testing.T) {
	_, a := campaign(t)
	vt := a.Vulnerability()
	if len(vt.Sizes) != 9 || len(vt.BinEdges) != 4 {
		t.Fatalf("table shape = %dx%d", len(vt.Sizes), len(vt.BinEdges))
	}
	// Conservation: cells sum to the margins and the grand total.
	for i := range vt.Sizes {
		sumI, sumT := 0, 0
		for j := range vt.BinEdges {
			sumI += vt.Cells[i][j].Interrupted
			sumT += vt.Cells[i][j].Total
		}
		if sumI != vt.RowTotals[i].Interrupted || sumT != vt.RowTotals[i].Total {
			t.Fatalf("row %d margin mismatch", i)
		}
	}
	grandT := 0
	for j := range vt.BinEdges {
		grandT += vt.ColTotals[j].Total
	}
	if grandT != vt.Grand.Total {
		t.Fatalf("grand total mismatch: %d vs %d", grandT, vt.Grand.Total)
	}
	// Obs. 10: interruption proportion rises with size. Compare narrow
	// (1-2) against wide (>= 32) rows.
	narrowI, narrowT, wideI, wideT := 0, 0, 0, 0
	for i, s := range vt.Sizes {
		if s <= 2 {
			narrowI += vt.RowTotals[i].Interrupted
			narrowT += vt.RowTotals[i].Total
		}
		if s >= 32 {
			wideI += vt.RowTotals[i].Interrupted
			wideT += vt.RowTotals[i].Total
		}
	}
	if narrowT == 0 || wideT == 0 {
		t.Fatal("empty size classes")
	}
	narrowP := float64(narrowI) / float64(narrowT)
	wideP := float64(wideI) / float64(wideT)
	if wideP <= 2*narrowP {
		t.Errorf("wide proportion %.4f not well above narrow %.4f (Obs. 10)", wideP, narrowP)
	}
	// Obs. 10's flip side: runtime does not monotonically raise risk —
	// the longest-runtime column must not have the highest proportion.
	best := 0
	for j := range vt.BinEdges {
		if vt.ColTotals[j].Proportion() > vt.ColTotals[best].Proportion() {
			best = j
		}
	}
	if best == len(vt.BinEdges)-1 {
		t.Errorf("longest-runtime column has the highest interruption proportion; contradicts Obs. 10")
	}
}

func TestFeatures(t *testing.T) {
	_, a := campaign(t)
	fr := a.Features(12)
	if len(fr.UnreliableMidplanes) != 12 {
		t.Fatalf("unreliable midplanes = %d", len(fr.UnreliableMidplanes))
	}
	if len(fr.System) != 5 || len(fr.Application) != 5 {
		t.Fatalf("rankings = %d/%d features", len(fr.System), len(fr.Application))
	}
	rank := func(list []string, name string) int {
		for i, n := range list {
			if n == name {
				return i
			}
		}
		return -1
	}
	sysNames := make([]string, len(fr.System))
	for i, f := range fr.System {
		sysNames[i] = f.Name
	}
	appNames := make([]string, len(fr.Application))
	for i, f := range fr.Application {
		appNames[i] = f.Name
	}
	// Obs. 10: size (and location) dominate category-1 vulnerability;
	// size must outrank execution time.
	if rank(sysNames, "size") > rank(sysNames, "exectime") {
		t.Errorf("category 1 ranking %v: size should outrank exectime", sysNames)
	}
	// Obs. 11: execution time dominates category 2.
	if rank(appNames, "exectime") > 2 {
		t.Errorf("category 2 ranking %v: exectime should rank near the top", appNames)
	}
	// Obs. 12: suspicious users exist, but even the worst user's failed
	// fraction stays small.
	if len(fr.SuspiciousUsers) == 0 || fr.SuspiciousUserShare < 0.5 {
		t.Errorf("suspicious users = %d covering %.3f", len(fr.SuspiciousUsers), fr.SuspiciousUserShare)
	}
	if len(fr.SuspiciousProjects) == 0 {
		t.Error("no suspicious projects")
	}
	if fr.MaxFailedJobFraction > 0.25 {
		t.Errorf("max per-user failed fraction = %.3f, want small (Obs. 12)", fr.MaxFailedJobFraction)
	}
}

func TestEarlyInterruptionFraction(t *testing.T) {
	_, a := campaign(t)
	// Obs. 11: most application-error interruptions within the first hour.
	appEarly := a.EarlyInterruptionFraction(ClassApplication, time.Hour)
	if appEarly < 0.5 {
		t.Errorf("early app-interruption fraction = %.3f, want >= 0.5 (paper: 74.5%%)", appEarly)
	}
	if f := a.EarlyInterruptionFraction(ClassApplication, 0); f != 0 {
		t.Errorf("zero cutoff fraction = %v", f)
	}
}

func TestMidplaneFits(t *testing.T) {
	_, a := campaign(t)
	c := a.MidplaneFits(5)
	if c.Fitted == 0 {
		t.Fatal("no midplanes fitted")
	}
	if c.ShapeBelowOne < c.Fitted/2 {
		t.Errorf("only %d of %d fitted midplanes have decreasing hazard", c.ShapeBelowOne, c.Fitted)
	}
	if c.MeanShape <= 0 || c.MeanShape >= 2 {
		t.Errorf("mean shape = %v", c.MeanShape)
	}
	if c.MinEvents != 5 {
		t.Errorf("MinEvents = %d", c.MinEvents)
	}
	// The floor clamps.
	if got := a.MidplaneFits(0); got.MinEvents != 3 {
		t.Errorf("unclamped MinEvents = %d", got.MinEvents)
	}
}

func TestRelocationExamples(t *testing.T) {
	_, a := campaign(t)
	exs := a.RelocationExamples(3)
	if len(exs) == 0 {
		t.Fatal("no relocation examples on the campaign")
	}
	interrupted := a.InterruptedJobIDs()
	for _, ex := range exs {
		if classOf(a, ex.Code).Class != ClassApplication {
			t.Errorf("example code %s is not application-classified", ex.Code)
		}
		if ex.First.Job.ExecFile != ex.Exec || ex.Second.Job.ExecFile != ex.Exec {
			t.Error("example jobs do not match the executable")
		}
		if ex.First.Job.Partition == ex.Second.Job.Partition {
			t.Error("example is not a relocation")
		}
		if interrupted[ex.CleanJob.ID] {
			t.Error("clean job was interrupted")
		}
		if !ex.CleanJob.StartTime.After(ex.First.Job.EndTime) {
			t.Error("clean job does not postdate the first interruption")
		}
	}
	// Cap respected.
	if got := a.RelocationExamples(1); len(got) > 1 {
		t.Errorf("cap ignored: %d examples", len(got))
	}
}

// regionWorkloadShare is RegionFatalShare for a workload series.
func regionWorkloadShare(series [bgp.NumMidplanes]float64, lo, hi int) float64 {
	in, total := 0.0, 0.0
	for mp, v := range series {
		total += v
		if mp >= lo && mp < hi {
			in += v
		}
	}
	if total == 0 {
		return 0
	}
	return in / total
}
