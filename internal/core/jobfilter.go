package core

import (
	"sort"

	"repro/internal/filter"
	"repro/internal/store"
	"repro/internal/symtab"
)

// jobFilter removes job-related redundancy (§IV-C): fatal events
// re-reported because the scheduler kept allocating failed nodes to
// incoming jobs, or because users kept resubmitting buggy executables.
//
// A system-failure event B is redundant to an earlier event A of the
// same code when they share a location and no job executed successfully
// at that location between them. An application-error event is
// redundant when the same executable was already interrupted by the
// same code before. The relation is transitive, so each redundancy
// chain keeps only its first event.
func (a *Analysis) jobFilter() {
	interrupted := a.InterruptedJobIDs()

	// Events with interruptions per code, in time order.
	byCode := make(map[symtab.ErrcodeID][]*filter.Event)
	for _, ev := range a.Events {
		if len(a.interByEvent[ev]) > 0 {
			byCode[ev.Code] = append(byCode[ev.Code], ev)
		}
	}
	for _, evs := range byCode {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].First.Before(evs[j].First) })
	}

	redundant := make(map[*filter.Event]bool)

	for code, evs := range byCode {
		if a.Classification[code].Class == ClassApplication {
			// Application errors: redundant once the executable has been
			// interrupted by this code before, at any location. Check all
			// of an event's victims against the set before marking any, so
			// one event's own victims never make it redundant.
			seenExec := store.NewSet[symtab.ExecID](a.tab.Execs.Len())
			for _, ev := range evs {
				dup := false
				for _, in := range a.EventInterruptions(ev) {
					if seenExec.Has(in.Exec) {
						dup = true
					}
				}
				for _, in := range a.EventInterruptions(ev) {
					seenExec.Add(in.Exec)
				}
				if dup {
					redundant[ev] = true
				}
			}
			continue
		}
		// System failures: chain via shared location with no clean run in
		// between. Track, per midplane, the last event of this code whose
		// chain is alive there.
		lastAt := make(map[int]*filter.Event)
		for _, ev := range evs {
			dup := false
			for _, mp := range ev.Midplanes {
				prev, ok := lastAt[mp]
				if !ok {
					continue
				}
				if !a.occupancy.ranCleanBetween(mp, prev.First, ev.First, interrupted) {
					dup = true // transitively redundant to the chain head
					break
				}
			}
			for _, mp := range ev.Midplanes {
				lastAt[mp] = ev
			}
			if dup {
				redundant[ev] = true
			}
		}
	}

	a.Independent = nil
	a.JobRedundant = nil
	for _, ev := range a.Events {
		if redundant[ev] {
			a.JobRedundant = append(a.JobRedundant, ev)
		} else {
			a.Independent = append(a.Independent, ev)
		}
	}
}

// JobFilterStats summarizes the job-related filtering outcome (Obs. 3:
// a 13.1% compression on Intrepid).
type JobFilterStats struct {
	// Input is the number of events entering job-related filtering.
	Input int
	// Removed is the number of job-related redundant events.
	Removed int
	// CompressionRatio is Removed / Input.
	CompressionRatio float64
	// SameLocationResubmitFraction is the fraction of resubmitted jobs
	// the scheduler placed on the same partition as the interrupted
	// attempt (the paper: 57.44%).
	SameLocationResubmitFraction float64
	// Resubmissions is the number of resubmissions detected.
	Resubmissions int
}

// JobFilter reports the statistics of the job-related filtering stage.
func (a *Analysis) JobFilter() JobFilterStats {
	st := JobFilterStats{
		Input:   len(a.Events),
		Removed: len(a.JobRedundant),
	}
	if st.Input > 0 {
		st.CompressionRatio = float64(st.Removed) / float64(st.Input)
	}
	same, n := a.sameLocationResubmits()
	st.Resubmissions = n
	if n > 0 {
		st.SameLocationResubmitFraction = float64(same) / float64(n)
	}
	return st
}

// sameLocationResubmits scans the job log for resubmissions — the next
// submission of an executable after one of its jobs was interrupted —
// and counts how many landed on the identical partition.
func (a *Analysis) sameLocationResubmits() (same, total int) {
	interrupted := a.InterruptedJobIDs()
	all := a.Jobs.All()
	for _, runs := range a.Jobs.ByExecFile() {
		for i := 0; i < len(runs)-1; i++ {
			cur := &all[runs[i]]
			if !interrupted[cur.ID] {
				continue
			}
			next := &all[runs[i+1]]
			if next.QueueTime.Before(cur.EndTime) {
				continue // overlapping submissions, not a reaction
			}
			total++
			if next.Partition == cur.Partition {
				same++
			}
		}
	}
	return same, total
}
