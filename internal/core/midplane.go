package core

import (
	"sort"

	"repro/internal/bgp"
	"repro/internal/stats"
)

// MidplaneCharacteristics carries the §V-B per-midplane analysis
// (Figure 4): fatal-event counts, raw workload, and wide-job workload
// per midplane, plus the correlations that support Observation 5.
type MidplaneCharacteristics struct {
	// FatalEvents is the independent fatal-event count per midplane
	// (Figure 4a). Events spanning several midplanes count once per
	// touched midplane.
	FatalEvents [bgp.NumMidplanes]int
	// WorkloadSec is the total job-occupancy per midplane in seconds
	// (Figure 4b).
	WorkloadSec [bgp.NumMidplanes]float64
	// WideWorkloadSec counts only jobs at least WideSize midplanes wide
	// (Figure 4c).
	WideWorkloadSec [bgp.NumMidplanes]float64
	// WideSize is the width threshold used (the paper's Figure 4c uses
	// jobs requesting no less than 32 midplanes).
	WideSize int
	// CorrWorkload and CorrWideWorkload are Pearson correlations of the
	// fatal-event counts against the two workload series. Observation 5:
	// the wide-job correlation is the strong one.
	CorrWorkload, CorrWideWorkload float64
	// TopMidplanes lists the midplane indices with the highest fatal
	// counts, descending.
	TopMidplanes []int
}

// MidplaneCharacteristics computes Figure 4's three series over the
// independent events and the job log.
func (a *Analysis) MidplaneCharacteristics(wideSize int) MidplaneCharacteristics {
	if wideSize <= 0 {
		wideSize = 32
	}
	mc := MidplaneCharacteristics{WideSize: wideSize}
	for _, ev := range a.Independent {
		for _, mp := range ev.Midplanes {
			mc.FatalEvents[mp]++
		}
	}
	mc.WorkloadSec = a.Jobs.MidplaneBusySeconds(0)
	mc.WideWorkloadSec = a.Jobs.MidplaneBusySeconds(wideSize)

	fatal := make([]float64, bgp.NumMidplanes)
	for i, n := range mc.FatalEvents {
		fatal[i] = float64(n)
	}
	mc.CorrWorkload = stats.Pearson(fatal, mc.WorkloadSec[:])
	mc.CorrWideWorkload = stats.Pearson(fatal, mc.WideWorkloadSec[:])

	idx := make([]int, bgp.NumMidplanes)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return mc.FatalEvents[idx[i]] > mc.FatalEvents[idx[j]]
	})
	mc.TopMidplanes = idx
	return mc
}

// RegionFatalShare returns the fraction of per-midplane fatal counts
// falling in [lo, hi) — used to check the paper's finding that
// midplanes 33–64 (0-indexed 32–63) dominate.
func (mc MidplaneCharacteristics) RegionFatalShare(lo, hi int) float64 {
	in, total := 0, 0
	for mp, n := range mc.FatalEvents {
		total += n
		if mp >= lo && mp < hi {
			in += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// RegionWorkloadShare is the analogous share for a workload series.
func RegionWorkloadShare(series [bgp.NumMidplanes]float64, lo, hi int) float64 {
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
