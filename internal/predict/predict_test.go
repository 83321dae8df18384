package predict

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/raslog"
	"repro/internal/symtab"
)

var (
	t0   = time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	ptab = symtab.NewTable()
)

func ev(code string, at time.Duration, mps ...int) *filter.Event {
	return &filter.Event{
		Code: ptab.Errcodes.Intern(code), Component: raslog.CompKernel,
		First: t0.Add(at), Last: t0.Add(at), Midplanes: mps, Size: 1,
	}
}

func TestChainPredictorWindow(t *testing.T) {
	p := NewChainPredictor(2 * time.Hour)
	p.Observe(ev("x", 0, 5))
	if !p.Alarmed(5, t0.Add(time.Hour)) {
		t.Error("midplane 5 should be alarmed within the window")
	}
	if p.Alarmed(5, t0.Add(3*time.Hour)) {
		t.Error("alarm should lapse after the window")
	}
	if p.Alarmed(6, t0.Add(time.Hour)) {
		t.Error("unrelated midplane alarmed")
	}
	p.Reset()
	if p.Alarmed(5, t0.Add(time.Hour)) {
		t.Error("Reset did not clear alarms")
	}
}

func TestChainPredictorKeepsLatestHorizon(t *testing.T) {
	p := NewChainPredictor(time.Hour)
	p.Observe(ev("x", 0, 5))
	p.Observe(ev("x", 30*time.Minute, 5))
	if !p.Alarmed(5, t0.Add(80*time.Minute)) {
		t.Error("second event should extend the alarm")
	}
}

func TestRatePredictorDecay(t *testing.T) {
	p := NewRatePredictor(time.Hour, 1.5)
	p.Observe(ev("x", 0, 3))
	if p.Alarmed(3, t0) {
		t.Error("one event should not reach threshold 1.5")
	}
	p.Observe(ev("x", 10*time.Minute, 3))
	if !p.Alarmed(3, t0.Add(11*time.Minute)) {
		t.Error("two quick events should alarm")
	}
	// After several decay constants the alarm must clear.
	if p.Alarmed(3, t0.Add(12*time.Hour)) {
		t.Error("alarm should decay away")
	}
}

func TestRatePredictorSeparateMidplanes(t *testing.T) {
	p := NewRatePredictor(time.Hour, 0.5)
	p.Observe(ev("x", 0, 1))
	if p.Alarmed(2, t0.Add(time.Minute)) {
		t.Error("midplane 2 alarmed without events")
	}
}

func TestEvaluateChainCatchesRepeats(t *testing.T) {
	// Three repeats at midplane 7 within the window, plus one isolated
	// event elsewhere: chain predictor catches the repeats only.
	events := []*filter.Event{
		ev("a", 0, 7),
		ev("a", 30*time.Minute, 7),
		ev("a", 60*time.Minute, 7),
		ev("b", 50*time.Hour, 20),
	}
	r, err := Evaluate(NewChainPredictor(2*time.Hour), events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hits != 2 || r.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", r.Hits, r.Misses)
	}
	if r.Recall != 0.5 {
		t.Errorf("recall = %v", r.Recall)
	}
	if r.AlarmMidplaneHours <= 0 {
		t.Error("no alarm time integrated")
	}
}

func TestEvaluateBaselines(t *testing.T) {
	events := []*filter.Event{ev("a", 0, 1), ev("a", time.Hour, 1)}
	never, err := Evaluate(NeverPredictor{}, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if never.Hits != 0 || never.Recall != 0 || never.AlarmMidplaneHours != 0 {
		t.Errorf("never: %+v", never)
	}
	always, err := Evaluate(AlwaysPredictor{}, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if always.Misses != 0 || always.Recall != 1 {
		t.Errorf("always: %+v", always)
	}
	if always.AlarmMidplaneHours <= never.AlarmMidplaneHours {
		t.Error("always must integrate more alarm time than never")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	if _, err := Evaluate(NeverPredictor{}, nil, nil); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestCompareOrdersAndNames(t *testing.T) {
	events := []*filter.Event{ev("a", 0, 1), ev("a", 20*time.Minute, 1)}
	ps := []Predictor{NeverPredictor{}, NewChainPredictor(time.Hour), AlwaysPredictor{}}
	rs, err := Compare(ps, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[0].Predictor != "never" || rs[2].Predictor != "always" {
		t.Errorf("names = %v, %v", rs[0].Predictor, rs[2].Predictor)
	}
	if !(rs[1].Recall > rs[0].Recall) {
		t.Error("chain should beat never on this stream")
	}
	// Efficiency: chain buys its recall with far less alarm budget than
	// always.
	if rs[1].AlarmMidplaneHours >= rs[2].AlarmMidplaneHours {
		t.Error("chain should use less alarm time than always")
	}
}

func TestEvaluateCountsIdleHits(t *testing.T) {
	events := []*filter.Event{ev("a", 0, 1), ev("a", time.Hour, 2), ev("a", 2*time.Hour, 3)}
	idle := []bool{true, false, true}
	r, err := Evaluate(AlwaysPredictor{}, events, idle)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hits != 3 || r.IdleHits != 2 {
		t.Errorf("hits/idle hits = %d/%d, want 3/2", r.Hits, r.IdleHits)
	}
	if want := 2.0 / 3; r.AvoidableActionFraction != want {
		t.Errorf("avoidable fraction = %v, want %v", r.AvoidableActionFraction, want)
	}
	// Idle misses are not avoidable actions: nothing was predicted.
	never, err := Evaluate(NeverPredictor{}, events, idle)
	if err != nil {
		t.Fatal(err)
	}
	if never.IdleHits != 0 {
		t.Errorf("never: idle hits = %d", never.IdleHits)
	}
	// Nil flags mean no job log: hits, but no idle hits.
	blind, err := Evaluate(AlwaysPredictor{}, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blind.Hits != 3 || blind.IdleHits != 0 {
		t.Errorf("no job log: hits/idle hits = %d/%d, want 3/0", blind.Hits, blind.IdleHits)
	}
}

func TestEvaluateRejectsMisalignedIdleFlags(t *testing.T) {
	events := []*filter.Event{ev("a", 0, 1), ev("a", time.Hour, 1)}
	if _, err := Evaluate(AlwaysPredictor{}, events, []bool{true}); err == nil {
		t.Error("one idle flag for two events accepted")
	}
	if _, err := Compare([]Predictor{NeverPredictor{}}, events, []bool{true, true, true}); err == nil {
		t.Error("Compare accepted three idle flags for two events")
	}
}

func TestEvaluateScoresTrailingIdleHits(t *testing.T) {
	// The hourly grid stops at 1h, so the 90-minute event is scored
	// after the grid loop; its idle hit must count like any other.
	events := []*filter.Event{ev("a", 0, 1), ev("a", 90*time.Minute, 2)}
	r, err := Evaluate(AlwaysPredictor{}, events, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Hits != 2 || r.IdleHits != 2 || r.AvoidableActionFraction != 1 {
		t.Errorf("hits/idle hits/avoidable = %d/%d/%v, want 2/2/1",
			r.Hits, r.IdleHits, r.AvoidableActionFraction)
	}
}

// alwaysDecays is RatePredictor answering every Alarmed query through
// decayed, without the below-threshold short-circuit.
type alwaysDecays struct{ *RatePredictor }

func (p alwaysDecays) Alarmed(mp int, t time.Time) bool {
	return p.decayed(mp, t) >= p.Threshold
}

// perMidplane counts the grid through a per-midplane Alarmed loop, the
// form Evaluate took before predictors counted their own grid. Without
// it alwaysDecays would inherit RatePredictor's AlarmedCount and score
// the fast path against itself.
type perMidplane struct{ Predictor }

func (p perMidplane) AlarmedCount(t time.Time) int {
	n := 0
	for mp := 0; mp < bgp.NumMidplanes; mp++ {
		if p.Alarmed(mp, t) {
			n++
		}
	}
	return n
}

// randomStream returns n time-ordered events on a few hot midplanes;
// about a third share the previous event's time, so queries at an
// event's own time hit decayed's dt <= 0 branch.
func randomStream(rng *rand.Rand, n int) []*filter.Event {
	hot := []int{3, 17, 40, 79}
	events := make([]*filter.Event, 0, n)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		if i == 0 || rng.Intn(3) != 0 {
			at += time.Duration(rng.Int63n(int64(6 * time.Hour)))
		}
		mps := []int{hot[rng.Intn(len(hot))]}
		if rng.Intn(4) == 0 {
			mps = append(mps, rng.Intn(bgp.NumMidplanes))
		}
		events = append(events, ev("x", at, mps...))
	}
	return events
}

// TestRatePredictorShortCircuitIsExact checks both of RatePredictor's
// shortcuts against the plain decayed score: Alarmed's below-threshold
// answer, and AlarmedCount's skipping of lapsed midplanes on Evaluate's
// grid.
func TestRatePredictorShortCircuitIsExact(t *testing.T) {
	taus := []time.Duration{time.Second, time.Minute, time.Hour, 24 * time.Hour, 30 * 24 * time.Hour}
	thresholds := []float64{0.25, 0.75, 1, 1.5, 3}
	for seed := int64(1); seed <= 5; seed++ {
		events := randomStream(rand.New(rand.NewSource(seed)), 120)
		for _, tau := range taus {
			for _, thr := range thresholds {
				p := NewRatePredictor(tau, thr)
				next := 0
				check := func(at time.Time) {
					for mp := 0; mp < bgp.NumMidplanes; mp++ {
						if got, want := p.Alarmed(mp, at), p.decayed(mp, at) >= thr; got != want {
							t.Fatalf("seed %d tau %v thr %v: Alarmed(%d, %v) = %v, decayed says %v",
								seed, tau, thr, mp, at, got, want)
						}
					}
				}
				end := events[len(events)-1].First
				for at := events[0].First; !at.After(end); at = at.Add(time.Hour) {
					for ; next < len(events) && !events[next].First.After(at); next++ {
						check(events[next].First)
						p.Observe(events[next])
						check(events[next].First)
					}
					check(at)
					oracle := perMidplane{alwaysDecays{p}}
					if got, want := p.AlarmedCount(at), oracle.AlarmedCount(at); got != want {
						t.Fatalf("seed %d tau %v thr %v: AlarmedCount(%v) = %d, per-midplane decayed count %d",
							seed, tau, thr, at, got, want)
					}
				}

				got, err := Evaluate(NewRatePredictor(tau, thr), events, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Evaluate(perMidplane{alwaysDecays{NewRatePredictor(tau, thr)}}, events, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d tau %v thr %v: Evaluate = %+v, without the shortcuts %+v",
						seed, tau, thr, got, want)
				}
			}
		}
	}
}

// TestAlarmedCountMatchesPerMidplane scores every other predictor's
// grid count against the per-midplane Alarmed loop, with and without
// idle flags.
func TestAlarmedCountMatchesPerMidplane(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events := randomStream(rng, 120)
		idle := make([]bool, len(events))
		for i := range idle {
			idle[i] = rng.Intn(2) == 0
		}
		fresh := []func() Predictor{
			func() Predictor { return NeverPredictor{} },
			func() Predictor { return AlwaysPredictor{} },
			func() Predictor { return NewChainPredictor(0) },
			func() Predictor { return NewChainPredictor(time.Hour) },
			func() Predictor { return NewChainPredictor(12 * time.Hour) },
			func() Predictor { return NewChainPredictor(30 * 24 * time.Hour) },
		}
		for _, mk := range fresh {
			for _, flags := range [][]bool{nil, idle} {
				got, err := Evaluate(mk(), events, flags)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Evaluate(perMidplane{mk()}, events, flags)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d %s: Evaluate = %+v, per-midplane grid %+v", seed, got.Predictor, got, want)
				}
			}
		}
	}
}

func TestRatePredictorAlarmsAtScoreEqualToThreshold(t *testing.T) {
	// One event leaves a stored score of exactly 1; queried at the
	// event's own time there is no decay, so a threshold of 1 alarms.
	p := NewRatePredictor(time.Hour, 1)
	p.Observe(ev("x", 0, 5))
	if !p.Alarmed(5, t0) {
		t.Error("a score equal to the threshold must alarm")
	}
}
