// Package predict implements the failure-prediction extension the
// paper's §VII calls for: predictors that name the *location* of the
// next fatal event, so proactive actions can be skipped when the
// implicated nodes are idle (Obs. 7: 45% of fatal events strike idle
// hardware).
//
// Two online predictors are provided — a decayed per-midplane rate
// model and a repeat-location (chain) model — plus an evaluator that
// replays a filtered event stream and scores alarm precision, recall,
// and the fraction of useless proactive actions a location-aware
// predictor avoids.
package predict

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bgp"
	"repro/internal/filter"
)

// Predictor is an online location-aware failure predictor. Observe
// feeds it each fatal event as it happens; Alarmed reports whether the
// predictor currently flags a midplane as likely to fail within its
// horizon.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Observe feeds one fatal event (time-ordered).
	Observe(ev *filter.Event)
	// Alarmed reports whether midplane mp is flagged at time t.
	Alarmed(mp int, t time.Time) bool
	// Reset clears all learned state.
	Reset()
}

// RatePredictor alarms a midplane when its exponentially decayed fatal
// event rate exceeds a threshold: the machinery behind "this midplane
// has been failing a lot lately".
type RatePredictor struct {
	// Tau is the decay time constant; it must not be negative.
	Tau time.Duration
	// Threshold is the alarm level in decayed events.
	Threshold float64

	score [bgp.NumMidplanes]float64
	last  [bgp.NumMidplanes]time.Time
}

// NewRatePredictor returns a rate predictor with the given decay and
// threshold.
func NewRatePredictor(tau time.Duration, threshold float64) *RatePredictor {
	return &RatePredictor{Tau: tau, Threshold: threshold}
}

// Name implements Predictor.
func (p *RatePredictor) Name() string {
	return fmt.Sprintf("rate(tau=%s,thr=%.2g)", p.Tau, p.Threshold)
}

// Reset implements Predictor.
func (p *RatePredictor) Reset() {
	p.score = [bgp.NumMidplanes]float64{}
	p.last = [bgp.NumMidplanes]time.Time{}
}

func (p *RatePredictor) decayed(mp int, t time.Time) float64 {
	if p.last[mp].IsZero() {
		return 0
	}
	dt := t.Sub(p.last[mp])
	if dt <= 0 {
		return p.score[mp]
	}
	return p.score[mp] * math.Exp(-dt.Seconds()/p.Tau.Seconds())
}

// Observe implements Predictor.
func (p *RatePredictor) Observe(ev *filter.Event) {
	for _, mp := range ev.Midplanes {
		p.score[mp] = p.decayed(mp, ev.First) + 1
		p.last[mp] = ev.First
	}
}

// Alarmed implements Predictor. A stored score below the threshold
// answers without the Exp: with Tau >= 0, decayed is 0, the score
// itself, or the score times exp(-x) with x > 0, which is at most 1, so
// it cannot climb back to a threshold the score is already under.
func (p *RatePredictor) Alarmed(mp int, t time.Time) bool {
	if p.score[mp] < p.Threshold {
		return false
	}
	return p.decayed(mp, t) >= p.Threshold
}

// ChainPredictor alarms the midplanes of the most recent fatal event
// for a fixed window — the "failed nodes will fail again until
// repaired" heuristic behind the paper's job-related redundancy.
type ChainPredictor struct {
	// Window is how long after an event its midplanes stay alarmed.
	Window time.Duration

	until [bgp.NumMidplanes]time.Time
}

// NewChainPredictor returns a chain predictor with the given window.
func NewChainPredictor(window time.Duration) *ChainPredictor {
	return &ChainPredictor{Window: window}
}

// Name implements Predictor.
func (p *ChainPredictor) Name() string { return fmt.Sprintf("chain(window=%s)", p.Window) }

// Reset implements Predictor.
func (p *ChainPredictor) Reset() { p.until = [bgp.NumMidplanes]time.Time{} }

// Observe implements Predictor.
func (p *ChainPredictor) Observe(ev *filter.Event) {
	horizon := ev.First.Add(p.Window)
	for _, mp := range ev.Midplanes {
		if horizon.After(p.until[mp]) {
			p.until[mp] = horizon
		}
	}
}

// Alarmed implements Predictor.
func (p *ChainPredictor) Alarmed(mp int, t time.Time) bool {
	return !p.until[mp].IsZero() && !t.After(p.until[mp])
}

// NeverPredictor is the null baseline: no alarms.
type NeverPredictor struct{}

// Name implements Predictor.
func (NeverPredictor) Name() string { return "never" }

// Observe implements Predictor.
func (NeverPredictor) Observe(*filter.Event) {}

// Alarmed implements Predictor.
func (NeverPredictor) Alarmed(int, time.Time) bool { return false }

// Reset implements Predictor.
func (NeverPredictor) Reset() {}

// AlwaysPredictor alarms everything: the upper bound on recall and the
// lower bound on usefulness.
type AlwaysPredictor struct{}

// Name implements Predictor.
func (AlwaysPredictor) Name() string { return "always" }

// Observe implements Predictor.
func (AlwaysPredictor) Observe(*filter.Event) {}

// Alarmed implements Predictor.
func (AlwaysPredictor) Alarmed(int, time.Time) bool { return true }

// Reset implements Predictor.
func (AlwaysPredictor) Reset() {}
