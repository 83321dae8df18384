package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/joblog"
	"repro/internal/simulate"
)

// naiveRunningAt is the linear-scan oracle for occupancy: the jobs
// executing at time t.
func naiveRunningAt(l *joblog.Log, t time.Time) []joblog.Job {
	var out []joblog.Job
	for _, j := range l.All() {
		if j.RunningAt(t) {
			out = append(out, j)
		}
	}
	return out
}

// naiveRunningOn is the linear-scan oracle for one midplane: the jobs
// executing at time t whose partition contains mp.
func naiveRunningOn(l *joblog.Log, t time.Time, mp int) []joblog.Job {
	var out []joblog.Job
	for _, j := range l.All() {
		if j.RunningAt(t) && j.OnMidplane(mp) {
			out = append(out, j)
		}
	}
	return out
}

// naiveIdle reports an event's idleness by linear scans: no job
// running anywhere, or none on any of the event's midplanes.
func naiveIdle(l *joblog.Log, ev *filter.Event) bool {
	if len(naiveRunningAt(l, ev.First)) == 0 {
		return true
	}
	for _, mp := range ev.Midplanes {
		if len(naiveRunningOn(l, ev.First, mp)) > 0 {
			return false
		}
	}
	return true
}

// tailJobs builds midplanes whose jobs overlap the way inline system
// kills make them: a killed job's EndTime lands up to a minute after
// the next allocation started, and short jobs can start and end inside
// that tail. At most three jobs overlap at any instant.
func tailJobs() []joblog.Job {
	s := time.Second
	return []joblog.Job{
		// Midplane 0: three short jobs start (and end) inside job 1's
		// last ten seconds, so at 98 s only job 1 runs, four entries
		// back.
		mkJob(1, "/long", 0, 100*s, 0, 1),
		mkJob(2, "/a", 90*s, 95*s, 0, 1),
		mkJob(3, "/b", 92*s, 96*s, 0, 1),
		mkJob(4, "/c", 96*s, 98*s, 0, 1),
		mkJob(5, "/d", 120*s, 300*s, 0, 1),
		// Midplanes 2-3: a chained tail, each job overlapping the next.
		mkJob(6, "/e", 0, 200*s, 2, 2),
		mkJob(7, "/f", 170*s, 260*s, 2, 2),
		mkJob(8, "/g", 180*s, 190*s, 2, 1),
		mkJob(9, "/h", 240*s, 400*s, 2, 2),
		// Midplane 5: a job whose tail spans a short job and a gap.
		mkJob(10, "/i", 10*s, 150*s, 5, 1),
		mkJob(11, "/j", 100*s, 105*s, 5, 1),
		mkJob(12, "/k", 106*s, 108*s, 5, 1),
		mkJob(13, "/l", 109*s, 110*s, 5, 1),
		mkJob(14, "/m", 111*s, 112*s, 5, 1),
	}
}

func TestRunningOnMatchesNaiveOnKillTails(t *testing.T) {
	jl := joblog.NewLog(tailJobs())
	ix := occupancyOf(jl)
	for mp := 0; mp < 8; mp++ {
		for sec := -5; sec <= 410; sec++ {
			at := t0.Add(time.Duration(sec) * time.Second)
			want := naiveRunningOn(jl, at, mp)
			j, ok := ix.runningOn(mp, at)
			if ok != (len(want) > 0) {
				t.Fatalf("runningOn(%d, %ds) = %v, naive scan finds %d jobs", mp, sec, ok, len(want))
			}
			if ok && (!j.RunningAt(at) || !j.OnMidplane(mp)) {
				t.Fatalf("runningOn(%d, %ds) returned job %d, not running there", mp, sec, j.ID)
			}
		}
	}
	// The case a fixed two-step walk back misses.
	if _, ok := ix.runningOn(0, t0.Add(98*time.Second)); !ok {
		t.Error("job 1's tail at 98 s not seen behind three later starts")
	}
}

func TestIdleEventsMatchNaiveOnKillTails(t *testing.T) {
	jl := joblog.NewLog(tailJobs())
	a := &Analysis{Jobs: jl, occupancy: occupancyOf(jl)}
	for sec := -5; sec <= 410; sec += 3 {
		at := t0.Add(time.Duration(sec) * time.Second)
		a.Events = append(a.Events,
			&filter.Event{First: at, Last: at, Midplanes: []int{0}},
			&filter.Event{First: at, Last: at, Midplanes: []int{3, 5}},
			&filter.Event{First: at, Last: at, Midplanes: []int{1, 4, 6}})
	}
	checkIdle(t, a)
}

func TestIdleEventsMatchNaiveOnQuickSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			camp, err := simulate.Run(simulate.Config{Seed: seed, Days: 60, NoisePerFatal: 3})
			if err != nil {
				t.Fatal(err)
			}
			a, err := Analyze(DefaultConfig(), camp.RAS, camp.Jobs)
			if err != nil {
				t.Fatal(err)
			}
			checkIdle(t, a)
		})
	}
}

// checkIdle compares the occupancy-index idleness of every event with
// the naive scan.
func checkIdle(t *testing.T, a *Analysis) {
	t.Helper()
	idle := a.IdleEvents()
	if len(idle) != len(a.Events) {
		t.Fatalf("IdleEvents = %d flags for %d events", len(idle), len(a.Events))
	}
	nIdle := 0
	for i, ev := range a.Events {
		if want := naiveIdle(a.Jobs, ev); idle[i] != want {
			t.Errorf("event %d at %v on %v: idle = %v, naive scan says %v",
				i, ev.First, ev.Midplanes, idle[i], want)
		}
		if idle[i] {
			nIdle++
		}
	}
	if nIdle == 0 || nIdle == len(idle) {
		t.Errorf("degenerate fixture: %d of %d events idle", nIdle, len(idle))
	}
}
