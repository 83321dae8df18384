package predict

import (
	"fmt"
	"time"

	"repro/internal/filter"
)

// Result scores one predictor over a replayed event stream.
type Result struct {
	// Predictor is the scored predictor's name.
	Predictor string
	// Hits counts events whose origin midplane was alarmed when they
	// struck (true positives).
	Hits int
	// Misses counts events that struck unalarmed midplanes.
	Misses int
	// Recall is Hits / (Hits + Misses).
	Recall float64
	// AlarmMidplaneHours integrates how long midplanes spent alarmed —
	// the proactive-action budget the predictor demands.
	AlarmMidplaneHours float64
	// Precision is Hits per alarmed midplane-day: how much alarm time
	// one true hit costs. Higher is better.
	HitsPerAlarmDay float64
	// IdleHits counts true positives where no job was running at the
	// location — the §VII point: with location information these
	// proactive actions can be skipped entirely.
	IdleHits int
	// AvoidableActionFraction is IdleHits / Hits.
	AvoidableActionFraction float64
}

// Evaluate replays the time-ordered events through the predictor: at
// each event it first asks whether the event's midplanes were alarmed
// (scoring), then lets the predictor observe the event. Alarm time is
// integrated on an hourly grid from the first event's time to the
// last's: at each grid point, once the events up to it are observed,
// the predictor's AlarmedCount adds that many midplane-hours. The
// counts are whole numbers, so the sum is exact whatever the order of
// the additions. idle flags, index-aligned with events,
// the events that struck while no job ran on any of their midplanes
// (core.Analysis.IdleEvents computes them); nil means no job log, so
// no idle hits are counted.
func Evaluate(p Predictor, events []*filter.Event, idle []bool) (Result, error) {
	if len(events) == 0 {
		return Result{}, fmt.Errorf("predict: no events")
	}
	if idle != nil && len(idle) != len(events) {
		return Result{}, fmt.Errorf("predict: %d idle flags for %d events", len(idle), len(events))
	}
	p.Reset()
	res := Result{Predictor: p.Name()}

	const grid = time.Hour
	start := events[0].First
	end := events[len(events)-1].First
	next := 0
	for t := start; !t.After(end); t = t.Add(grid) {
		// Feed events up to t.
		for ; next < len(events) && !events[next].First.After(t); next++ {
			res.score(p, events, idle, next)
		}
		res.AlarmMidplaneHours += float64(p.AlarmedCount(t)) * grid.Hours()
	}
	// Score any trailing events past the last grid point.
	for ; next < len(events); next++ {
		res.score(p, events, idle, next)
	}

	if res.Hits+res.Misses > 0 {
		res.Recall = float64(res.Hits) / float64(res.Hits+res.Misses)
	}
	if res.AlarmMidplaneHours > 0 {
		res.HitsPerAlarmDay = float64(res.Hits) / (res.AlarmMidplaneHours / 24)
	}
	if res.Hits > 0 {
		res.AvoidableActionFraction = float64(res.IdleHits) / float64(res.Hits)
	}
	return res, nil
}

// score replays events[i]: a hit if any of its midplanes was alarmed
// when it struck (an idle hit if idle flags it), a miss otherwise; then
// p observes it.
func (r *Result) score(p Predictor, events []*filter.Event, idle []bool, i int) {
	ev := events[i]
	alarmed := false
	for _, mp := range ev.Midplanes {
		if p.Alarmed(mp, ev.First) {
			alarmed = true
			break
		}
	}
	switch {
	case !alarmed:
		r.Misses++
	case idle != nil && idle[i]:
		r.Hits++
		r.IdleHits++
	default:
		r.Hits++
	}
	p.Observe(ev)
}

// Compare evaluates several predictors over the same stream and idle
// flags (see Evaluate).
func Compare(ps []Predictor, events []*filter.Event, idle []bool) ([]Result, error) {
	out := make([]Result, 0, len(ps))
	for _, p := range ps {
		r, err := Evaluate(p, events, idle)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
