package core

import (
	"math"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/joblog"
	"repro/internal/stats"
	"repro/internal/symtab"
)

// Class is the inferred origin of a fatal event type (§IV-B).
type Class int

const (
	// ClassSystem marks failures of system hardware or software.
	ClassSystem Class = iota
	// ClassApplication marks errors introduced by users.
	ClassApplication
)

// String names the class.
func (c Class) String() string {
	if c == ClassApplication {
		return "application"
	}
	return "system"
}

// ClassifyRule records which §IV-B rule produced a classification.
type ClassifyRule int

const (
	// RuleIdleOnly: the type was never co-located with a running job —
	// a system failure by definition.
	RuleIdleOnly ClassifyRule = iota
	// RuleRepeatLocation: the type interrupted several distinct
	// executables at one location consecutively — the scheduler kept
	// assigning the failed nodes, so the platform is at fault.
	RuleRepeatLocation
	// RuleRelocation: the type followed one executable across locations
	// while the old location ran other jobs cleanly — the code is at
	// fault (Figure 2's pattern).
	RuleRelocation
	// RuleCorrelation: assigned by Pearson correlation with already-
	// labeled types.
	RuleCorrelation
)

// String names the rule.
func (r ClassifyRule) String() string {
	switch r {
	case RuleIdleOnly:
		return "idle-only"
	case RuleRepeatLocation:
		return "repeat-location"
	case RuleRelocation:
		return "relocation"
	default:
		return "correlation"
	}
}

// Classification is the per-ERRCODE outcome of §IV-B.
type Classification struct {
	// Class is the inferred origin.
	Class Class
	// Rule is the rule that produced it.
	Rule ClassifyRule
	// Correlation is the Pearson coefficient used (RuleCorrelation only).
	Correlation float64
	// CorrelatedWith is the labeled code matched (RuleCorrelation only;
	// symtab.NoErrcode when no labeled code correlated). Resolve the name
	// via Analysis.Syms.
	CorrelatedWith symtab.ErrcodeID
}

// classify applies the §IV-B rules to every effectively-fatal ERRCODE.
// Nonfatal types are still labeled (as system, by correlation or idle
// evidence) so downstream tables can report them, but they carry no
// interruptions.
func (a *Analysis) classify() {
	a.Classification = make(map[symtab.ErrcodeID]Classification)

	// Gather per-code interruption lists.
	byCode := make(map[symtab.ErrcodeID][]Interruption)
	for _, in := range a.Interruptions {
		byCode[in.Event.Code] = append(byCode[in.Event.Code], in)
	}

	// Rule 1: never co-located with a running job -> system.
	for code, id := range a.Identification {
		if id.Case1 == 0 && id.Case3 == 0 {
			a.Classification[code] = Classification{
				Class: ClassSystem, Rule: RuleIdleOnly, CorrelatedWith: symtab.NoErrcode}
		}
	}

	// Rule 2: two distinct executables interrupted by the code at the
	// same midplane with no clean job between them — the scheduler kept
	// reallocating failed nodes, so the fault is continuously re-reported
	// until fixed -> system. The no-clean-run requirement keeps
	// coincidental same-location kills (two different buggy codes days
	// apart) from masquerading as platform faults.
	for code, ins := range byCode {
		if _, done := a.Classification[code]; done {
			continue
		}
		type hit struct {
			exec symtab.ExecID
			in   Interruption
		}
		// Per midplane, walked in midplane order: the verdict is the same
		// in any order, and a fixed order makes the work before the first
		// witness (and its allocations) repeat from run to run.
		var hitsAt [bgp.NumMidplanes][]hit
		for _, in := range ins {
			// Events that interrupt several jobs at once are shared-
			// infrastructure incidents (spatial propagation), not the
			// reallocate-failed-nodes pattern this rule detects; the
			// relocation rule handles their codes.
			if len(a.interByEvent[in.Event]) > 1 {
				continue
			}
			for mp := in.Job.Partition.Start; mp < in.Job.Partition.End(); mp++ {
				if !in.Event.OnMidplane(mp) {
					continue
				}
				hitsAt[mp] = append(hitsAt[mp], hit{exec: in.Exec, in: in})
			}
		}
		system := false
		for mp, hits := range &hitsAt {
			if len(hits) < 2 {
				continue
			}
			sort.Slice(hits, func(i, j int) bool {
				return hits[i].in.Job.EndTime.Before(hits[j].in.Job.EndTime)
			})
			for i := 1; i < len(hits) && !system; i++ {
				prev, cur := hits[i-1], hits[i]
				if prev.exec == cur.exec {
					continue
				}
				if prev.in.Event == cur.in.Event {
					continue // one occurrence, not a persisting fault
				}
				if !a.occupancy.ranCleanBetween(mp, prev.in.Job.EndTime, cur.in.Job.EndTime, a.interruptedAt) {
					system = true
				}
			}
			if system {
				break
			}
		}
		if system {
			a.Classification[code] = Classification{
				Class: ClassSystem, Rule: RuleRepeatLocation, CorrelatedWith: symtab.NoErrcode}
		}
	}

	// Rule 3: the code follows one executable across >= 2 locations in a
	// resubmission chain (no clean run of the executable in between)
	// while an old location later hosts an uninterrupted job ->
	// application (Figure 2).
	jobs := a.Jobs.All()
	for code, ins := range byCode {
		if _, done := a.Classification[code]; done {
			continue
		}
		byExec := make(map[symtab.ExecID][]Interruption)
		for _, in := range ins {
			byExec[in.Exec] = append(byExec[in.Exec], in)
		}
		// An unlucky fault-prone job can be killed twice at different
		// locations by one popular system code and mimic the pattern, so
		// a single witness is not enough: demand two independent
		// relocation witnesses (distinct interruption pairs).
		witnesses := 0
		for exec, list := range byExec {
			if len(list) < 2 {
				continue
			}
			sort.Slice(list, func(i, j int) bool {
				return list[i].Job.EndTime.Before(list[j].Job.EndTime)
			})
			for i := 1; i < len(list); i++ {
				prev, cur := list[i-1], list[i]
				if prev.Job.Partition == cur.Job.Partition {
					continue // same location: not a relocation
				}
				// A resubmission chain: no clean run of this executable
				// between the two interrupted attempts.
				if execRanCleanBetween(jobs, a.ExecRuns(exec), prev.Job.EndTime, cur.Job.StartTime, a.interruptedAt) {
					continue
				}
				// Did the old location host a clean job after the move?
				horizon := cur.Job.EndTime.Add(7 * 24 * time.Hour)
				for mp := prev.Job.Partition.Start; mp < prev.Job.Partition.End(); mp++ {
					if a.occupancy.ranCleanBetween(mp, prev.Job.EndTime, horizon, a.interruptedAt) {
						witnesses++
						break
					}
				}
			}
		}
		if witnesses >= 2 {
			a.Classification[code] = Classification{
				Class: ClassApplication, Rule: RuleRelocation, CorrelatedWith: symtab.NoErrcode}
		}
	}

	// Rule 4: correlate remaining unlabeled codes with labeled ones over
	// daily occurrence-count vectors; inherit the class of the most
	// correlated labeled code.
	a.classifyByCorrelation()
}

// execRanCleanBetween reports whether any run of the executable (given
// its StartTime-ordered runs as positions into jobs) started and ended
// inside (from, to) without being interrupted (interrupted is indexed
// by position, as Analysis.interruptedAt).
func execRanCleanBetween(jobs []joblog.Job, runs []int32, from, to time.Time, interrupted []bool) bool {
	for _, p := range runs {
		j := &jobs[p]
		if j.StartTime.After(to) {
			break
		}
		if j.StartTime.After(from) && j.EndTime.Before(to) && !interrupted[p] {
			return true
		}
	}
	return false
}

// dailyCountsAll returns per-day event counts for every interned code,
// indexed by ErrcodeID, in one pass over the event stream (the old
// per-code variant re-scanned all events once per code).
func (a *Analysis) dailyCountsAll() [][]float64 {
	days := a.span.Days()
	if days <= 0 {
		days = 1
	}
	out := make([][]float64, a.tab.Errcodes.Len())
	for _, ev := range a.Events {
		d := int(ev.First.Sub(a.span.start).Hours() / 24)
		if d < 0 || d >= days {
			continue
		}
		if out[ev.Code] == nil {
			out[ev.Code] = make([]float64, days)
		}
		out[ev.Code][d]++
	}
	// Codes with no in-span events still need a zero vector to correlate
	// against.
	for id := range out {
		if out[id] == nil {
			out[id] = make([]float64, days)
		}
	}
	return out
}

func (a *Analysis) classifyByCorrelation() {
	labeled := make([]symtab.ErrcodeID, 0, len(a.Identification))
	unlabeled := make([]symtab.ErrcodeID, 0, len(a.Identification))
	for code := range a.Identification {
		if _, ok := a.Classification[code]; ok {
			labeled = append(labeled, code)
		} else {
			unlabeled = append(unlabeled, code)
		}
	}
	// Order by resolved name, exactly as the string-keyed implementation
	// did, so candidate tie-breaks (and hence the report) are unchanged.
	byName := func(ids []symtab.ErrcodeID) func(i, j int) bool {
		return func(i, j int) bool {
			return a.tab.Errcodes.Name(ids[i]) < a.tab.Errcodes.Name(ids[j])
		}
	}
	sort.Slice(labeled, byName(labeled))
	sort.Slice(unlabeled, byName(unlabeled))
	vectors := a.dailyCountsAll()
	// minCorrelation guards against assigning a class from pure noise:
	// sparse daily-count vectors correlate weakly with everything.
	const minCorrelation = 0.15
	for _, code := range unlabeled {
		type cand struct {
			lab symtab.ErrcodeID
			r   float64
		}
		cands := make([]cand, 0, len(labeled))
		for _, lab := range labeled {
			r := stats.Pearson(vectors[code], vectors[lab])
			if math.IsNaN(r) || r < minCorrelation {
				continue
			}
			cands = append(cands, cand{lab, r})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].r != cands[j].r {
				return cands[i].r > cands[j].r
			}
			return a.tab.Errcodes.Name(cands[i].lab) < a.tab.Errcodes.Name(cands[j].lab)
		})
		// Majority vote among the three most correlated labeled codes;
		// ties and empty candidate sets fall back to system, the
		// dominant class (72 of 80 types on Intrepid).
		best := Classification{Class: ClassSystem, Rule: RuleCorrelation, CorrelatedWith: symtab.NoErrcode}
		if len(cands) > 0 {
			top := cands
			if len(top) > 3 {
				top = top[:3]
			}
			appVotes := 0
			for _, c := range top {
				if a.Classification[c.lab].Class == ClassApplication {
					appVotes++
				}
			}
			best.Correlation = top[0].r
			best.CorrelatedWith = top[0].lab
			if appVotes*2 > len(top) {
				best.Class = ClassApplication
			} else {
				best.Class = ClassSystem
			}
		}
		a.Classification[code] = best
	}
}

// ClassCensus tallies types and interruption volumes by inferred class;
// the paper reports 72 system types, 8 application types, and 17.73%
// of fatal events being application errors.
type ClassCensus struct {
	SystemTypes, ApplicationTypes int
	// ApplicationEventFraction is the fraction of filtered fatal events
	// whose type is classified as an application error.
	ApplicationEventFraction float64
	// SystemInterruptions and ApplicationInterruptions count matched job
	// interruptions by cause (the paper: 206 vs 102).
	SystemInterruptions, ApplicationInterruptions int
}

// ClassificationCensus summarizes the classification outcome.
func (a *Analysis) ClassificationCensus() ClassCensus {
	var c ClassCensus
	appEvents, total := 0, 0
	for code, cl := range a.Classification {
		id := a.Identification[code]
		if cl.Class == ClassApplication {
			c.ApplicationTypes++
			appEvents += id.Events
		} else {
			c.SystemTypes++
		}
		total += id.Events
	}
	if total > 0 {
		c.ApplicationEventFraction = float64(appEvents) / float64(total)
	}
	sys, app := a.InterruptionsByClass()
	c.SystemInterruptions = len(sys)
	c.ApplicationInterruptions = len(app)
	return c
}
