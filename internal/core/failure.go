package core

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/stats"
)

// FailureCharacteristics carries the §V-A systemwide interarrival
// analysis: distribution fits before and after job-related filtering
// (Figure 3, Table IV).
type FailureCharacteristics struct {
	// Before is the fit over all filtered events (with job-related
	// redundancy); After is the fit over independent events only.
	Before, After stats.InterarrivalFit
	// BeforeECDF and AfterECDF are the empirical CDFs of the two
	// interarrival samples (Figure 3's curves).
	BeforeECDF, AfterECDF *stats.ECDF
	// MTBFRatio is After.mean / Before.mean; the paper reports roughly
	// 3x after removing job-related redundancy.
	MTBFRatio float64
}

// interarrivalsSec extracts successive gaps (seconds) from a
// time-ordered event list, dropping non-positive gaps (simultaneous
// events).
func interarrivalsSec(evs []*filter.Event) []float64 {
	var out []float64
	for i := 1; i < len(evs); i++ {
		gap := evs[i].First.Sub(evs[i-1].First).Seconds()
		if gap > 0 {
			out = append(out, gap)
		}
	}
	return out
}

// InterarrivalSamples returns the raw interarrival samples (seconds)
// before and after job-related filtering, for custom model studies.
func (a *Analysis) InterarrivalSamples() (before, after []float64) {
	return interarrivalsSec(a.Events), interarrivalsSec(a.Independent)
}

// FailureCharacteristics fits the systemwide failure interarrival
// distributions before and after job-related filtering.
func (a *Analysis) FailureCharacteristics() (FailureCharacteristics, error) {
	var fc FailureCharacteristics
	before := interarrivalsSec(a.Events)
	after := interarrivalsSec(a.Independent)
	var err error
	if fc.Before, err = stats.FitInterarrivals(before); err != nil {
		return fc, fmt.Errorf("core: before-filter fit: %w", err)
	}
	if fc.After, err = stats.FitInterarrivals(after); err != nil {
		return fc, fmt.Errorf("core: after-filter fit: %w", err)
	}
	fc.BeforeECDF = stats.NewECDF(before)
	fc.AfterECDF = stats.NewECDF(after)
	if fc.Before.Weibull.Mean() > 0 {
		fc.MTBFRatio = fc.After.Weibull.Mean() / fc.Before.Weibull.Mean()
	}
	return fc, nil
}

// MidplaneInterarrivalFit fits the failure interarrival on one midplane
// (§V-B finds Weibull still fits at midplane level). Midplanes with
// fewer than three events return an error.
func (a *Analysis) MidplaneInterarrivalFit(mp int) (stats.InterarrivalFit, error) {
	var evs []*filter.Event
	for _, ev := range a.Independent {
		if ev.OnMidplane(mp) {
			evs = append(evs, ev)
		}
	}
	gaps := interarrivalsSec(evs)
	if len(gaps) < 2 {
		return stats.InterarrivalFit{}, fmt.Errorf("core: midplane %d has %d interarrivals; need >= 2", mp, len(gaps))
	}
	return stats.FitInterarrivals(gaps)
}

// MidplaneFitCensus summarizes §V-B: per-midplane interarrival fits.
type MidplaneFitCensus struct {
	// Fitted counts midplanes with enough events to fit (>= MinEvents).
	Fitted int
	// MinEvents is the fitting threshold used.
	MinEvents int
	// WeibullPreferred counts fitted midplanes where the LRT prefers the
	// Weibull over the exponential.
	WeibullPreferred int
	// ShapeBelowOne counts fitted midplanes with decreasing hazard.
	ShapeBelowOne int
	// MeanShape is the average fitted shape across fitted midplanes.
	MeanShape float64
}

// MidplaneFits fits the failure interarrival of every midplane with at
// least minEvents independent events and summarizes the outcome — the
// paper's finding that the Weibull still fits at midplane level. The
// census folds the fits in midplane order.
func (a *Analysis) MidplaneFits(minEvents int) MidplaneFitCensus {
	if minEvents < 3 {
		minEvents = 3
	}
	c := MidplaneFitCensus{MinEvents: minEvents}
	shapeSum := 0.0
	for mp := 0; mp < bgp.NumMidplanes; mp++ {
		n := 0
		for _, ev := range a.Independent {
			if ev.OnMidplane(mp) {
				n++
			}
		}
		if n < minEvents {
			continue
		}
		fit, err := a.MidplaneInterarrivalFit(mp)
		if err != nil {
			continue
		}
		c.Fitted++
		shapeSum += fit.Weibull.Shape
		if fit.WeibullPreferred() {
			c.WeibullPreferred++
		}
		if fit.Weibull.Shape < 1 {
			c.ShapeBelowOne++
		}
	}
	if c.Fitted > 0 {
		c.MeanShape = shapeSum / float64(c.Fitted)
	}
	return c
}
