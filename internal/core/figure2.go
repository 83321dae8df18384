package core

import (
	"sort"

	"repro/internal/joblog"
	"repro/internal/symtab"
)

// RelocationExample is one concrete instance of the Figure 2 pattern:
// an executable interrupted by the same fatal event type at two
// different locations in a resubmission chain, while the abandoned
// location later ran another job cleanly — the evidence that the code,
// not the platform, is at fault.
type RelocationExample struct {
	// Code is the application-error ERRCODE.
	Code string
	// Exec is the executable that carried the bug.
	Exec string
	// First and Second are the two interrupted attempts.
	First, Second Interruption
	// CleanJob is the uninterrupted job that ran at the first attempt's
	// location afterwards.
	CleanJob joblog.Job
}

// RelocationExamples extracts up to max concrete Figure 2 instances
// from the analysis, in time order of the first interruption.
func (a *Analysis) RelocationExamples(max int) []RelocationExample {
	if max <= 0 {
		max = 3
	}
	jobs := a.Jobs.All()

	byCodeExec := make(map[symtab.ErrcodeID]map[symtab.ExecID][]Interruption)
	for _, in := range a.Interruptions {
		code := in.Event.Code
		if a.Classification[code].Class != ClassApplication {
			continue
		}
		m := byCodeExec[code]
		if m == nil {
			m = make(map[symtab.ExecID][]Interruption)
			byCodeExec[code] = m
		}
		m[in.Exec] = append(m[in.Exec], in)
	}

	var out []RelocationExample
	for code, byExec := range byCodeExec {
		for exec, list := range byExec {
			if len(list) < 2 {
				continue
			}
			sort.Slice(list, func(i, j int) bool {
				return list[i].Job.EndTime.Before(list[j].Job.EndTime)
			})
			execName := a.tab.Execs.Name(exec)
			for i := 1; i < len(list); i++ {
				prev, cur := list[i-1], list[i]
				if prev.Job.Partition == cur.Job.Partition {
					continue
				}
				if execRanCleanBetween(jobs, a.ExecRuns(exec), prev.Job.EndTime, cur.Job.StartTime, a.interruptedAt) {
					continue
				}
				clean, ok := a.cleanJobAfter(prev.Job, cur.Job)
				if !ok {
					continue
				}
				out = append(out, RelocationExample{
					Code: a.tab.Errcodes.Name(code), Exec: execName,
					First: prev, Second: cur, CleanJob: clean,
				})
				break // one example per (code, exec)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].First.Job.EndTime.Before(out[j].First.Job.EndTime)
	})
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// cleanJobAfter finds an uninterrupted job that ran on the first
// attempt's partition after its interruption.
func (a *Analysis) cleanJobAfter(prev, cur joblog.Job) (joblog.Job, bool) {
	horizon := cur.EndTime.Add(7 * 24 * 3600 * 1e9)
	for mp := prev.Partition.Start; mp < prev.Partition.End(); mp++ {
		for _, p := range a.occupancy.perMp[mp] {
			j := &a.occupancy.byEnd[p]
			if j.StartTime.After(horizon) {
				break
			}
			if j.StartTime.After(prev.EndTime) && j.EndTime.Before(horizon) && !a.interruptedAt[p] {
				return *j, true
			}
		}
	}
	return joblog.Job{}, false
}
