package core

import (
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/joblog"
	"repro/internal/store"
	"repro/internal/symtab"
)

// occupancyIndex answers "which job ran on midplane m at time t" and
// "which jobs ended near time t on midplane m" in O(log n). Partition
// allocation is exclusive, so per-midplane intervals do not overlap
// (beyond the seconds-scale detection slack of inline kills).
type occupancyIndex struct {
	// perMp[mp] holds the positions in byEnd of the jobs touching mp,
	// sorted by StartTime. A job on 80 midplanes is listed 80 times as
	// a 4-byte position, never copied.
	perMp [bgp.NumMidplanes][]int32
	// maxEnd[mp][k] is the latest EndTime among perMp[mp][:k+1]; it
	// bounds runningOn's walk back.
	maxEnd [bgp.NumMidplanes][]time.Time
	// byEnd holds all jobs sorted by EndTime (the log's native order).
	byEnd []joblog.Job
}

// prefixMaxEnd returns the running maximum of EndTime over the jobs at
// positions idx of jobs.
func prefixMaxEnd(jobs []joblog.Job, idx []int32) []time.Time {
	out := make([]time.Time, len(idx))
	var m time.Time
	for k, p := range idx {
		if jobs[p].EndTime.After(m) {
			m = jobs[p].EndTime
		}
		out[k] = m
	}
	return out
}

// runningOn returns the job running on midplane mp at time t, if any.
func (ix *occupancyIndex) runningOn(mp int, t time.Time) (joblog.Job, bool) {
	js, jobs := ix.perMp[mp], ix.byEnd
	// Last job with StartTime <= t.
	i := sort.Search(len(js), func(k int) bool { return jobs[js[k]].StartTime.After(t) }) - 1
	// Inline system kills can leave a sub-minute tail in which later
	// allocations already start, and short ones even end; walk back
	// until no earlier job ends after t. Usually that is one step.
	ends := ix.maxEnd[mp]
	for k := i; k >= 0 && ends[k].After(t); k-- {
		if j := &jobs[js[k]]; j.RunningAt(t) {
			return *j, true
		}
	}
	return joblog.Job{}, false
}

// endedWithin returns the positions in byEnd of the jobs on midplane
// mp whose EndTime lies in [from, to], in StartTime order.
func (ix *occupancyIndex) endedWithin(mp int, from, to time.Time) []int32 {
	js, jobs := ix.perMp[mp], ix.byEnd
	// Every job before the first whose prefix maximum of EndTime
	// reaches from ended before the window opens.
	ends := ix.maxEnd[mp]
	lo := sort.Search(len(js), func(k int) bool { return !ends[k].Before(from) })
	// Sized for the common case (a handful of jobs end inside any one
	// window) without paying len(js) capacity on every call.
	out := make([]int32, 0, min(len(js), 8))
	for _, p := range js[lo:] {
		j := &jobs[p]
		if j.StartTime.After(to) {
			break
		}
		if !j.EndTime.Before(from) && !j.EndTime.After(to) {
			out = append(out, p)
		}
	}
	return out
}

// ranCleanBetween reports whether some job ran wholly inside (from, to)
// on midplane mp and was NOT interrupted (per the provided set of
// interrupted job IDs). This is the "no job executed between these two
// events" test of the job-related filter.
func (ix *occupancyIndex) ranCleanBetween(mp int, from, to time.Time, interrupted map[int64]bool) bool {
	js, jobs := ix.perMp[mp], ix.byEnd
	lo := sort.Search(len(js), func(k int) bool { return jobs[js[k]].StartTime.After(from) })
	for _, p := range js[lo:] {
		j := &jobs[p]
		if j.StartTime.After(to) {
			break
		}
		if j.EndTime.Before(to) && !interrupted[j.ID] {
			return true
		}
	}
	return false
}

// match attributes job terminations to fatal events: a job is
// interrupted by an event when its partition overlaps the event's
// midplanes and its EndTime falls within the event's time span plus
// the tolerance. The window is asymmetric — a job cannot be killed
// before its killer occurs, so only a small slack precedes the event.
// Each midplane can contribute at most one victim per event (partition
// allocation is exclusive), the one whose end is nearest the event.
func (a *Analysis) match() {
	tol := a.cfg.MatchTolerance
	const preSlack = 90 * time.Second
	a.interByEvent = make(map[*filter.Event][]int)
	// A job can be claimed by at most one event (the earliest match).
	claimed := make(map[int64]bool)
	for _, ev := range a.Events {
		from := ev.First.Add(-preSlack)
		to := ev.Last.Add(tol)
		seen := make(map[int64]bool)
		for _, mp := range ev.Midplanes {
			var best *joblog.Job
			bestDist := time.Duration(-1)
			for _, p := range a.occupancy.endedWithin(mp, from, to) {
				j := &a.occupancy.byEnd[p]
				if seen[j.ID] || claimed[j.ID] {
					continue
				}
				if j.StartTime.After(to) {
					continue
				}
				d := j.EndTime.Sub(ev.First)
				if d < 0 {
					d = -d
				}
				if bestDist < 0 || d < bestDist {
					best, bestDist = j, d
				}
			}
			if bestDist < 0 {
				continue
			}
			seen[best.ID] = true
			claimed[best.ID] = true
			execID, _ := a.tab.Execs.Lookup(best.ExecFile)
			jobID, _ := a.tab.Jobs.Lookup(best.ID)
			a.Interruptions = append(a.Interruptions,
				Interruption{Job: *best, Event: ev, Exec: execID, JobID: jobID})
			a.interByEvent[ev] = append(a.interByEvent[ev], len(a.Interruptions)-1)
		}
	}
}

// InterruptedJobIDs returns the set of job IDs attributed to any event.
func (a *Analysis) InterruptedJobIDs() map[int64]bool {
	out := make(map[int64]bool, len(a.Interruptions))
	for _, in := range a.Interruptions {
		out[in.Job.ID] = true
	}
	return out
}

// DistinctInterruptedJobs returns the number of distinct executables
// among interrupted jobs.
func (a *Analysis) DistinctInterruptedJobs() int {
	set := store.NewSet[symtab.ExecID](a.tab.Execs.Len())
	for _, in := range a.Interruptions {
		set.Add(in.Exec)
	}
	return set.Len()
}
