package core

import (
	"repro/internal/filter"
	"repro/internal/symtab"
)

// Verdict is the outcome of the three-case identification rule (§IV-A)
// for one ERRCODE.
type Verdict int

const (
	// VerdictInterruptionRelated: the type's events interrupt jobs
	// whenever a job runs at their location (cases 1 and 2 only).
	VerdictInterruptionRelated Verdict = iota
	// VerdictNonFatal: the type's events never interrupt co-located
	// running jobs (cases 2 and 3 only) — a false-fatal alarm.
	VerdictNonFatal
	// VerdictUndetermined: only idle occurrences were seen, or the
	// evidence conflicts (cases 1 and 3 both observed). The paper treats
	// these pessimistically as interruption-related.
	VerdictUndetermined
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictInterruptionRelated:
		return "interruption-related"
	case VerdictNonFatal:
		return "nonfatal"
	default:
		return "undetermined"
	}
}

// Identification is the per-ERRCODE outcome of §IV-A.
type Identification struct {
	// Verdict is the rule outcome.
	Verdict Verdict
	// Case1 counts events of the type that interrupted at least one job.
	Case1 int
	// Case2 counts events with no job running at their location.
	Case2 int
	// Case3 counts events whose co-located running job survived.
	Case3 int
	// Events is the total event count of the type.
	Events int
}

// identify applies the three-case rule to every ERRCODE.
func (a *Analysis) identify() {
	a.Identification = make(map[symtab.ErrcodeID]Identification)
	for _, ev := range a.Events {
		id := a.Identification[ev.Code]
		id.Events++
		switch {
		case len(a.interByEvent[ev]) > 0:
			id.Case1++
		case a.anyRunningAt(ev):
			id.Case3++
		default:
			id.Case2++
		}
		a.Identification[ev.Code] = id
	}
	for code, id := range a.Identification {
		switch {
		case id.Case1 > 0 && id.Case3 == 0:
			id.Verdict = VerdictInterruptionRelated
		case id.Case3 > 0 && id.Case1 == 0:
			id.Verdict = VerdictNonFatal
		default:
			id.Verdict = VerdictUndetermined
		}
		a.Identification[code] = id
	}
}

// IdleEvents reports, index-aligned with a.Events, whether no job was
// running on any of the event's midplanes when it began: the location
// idleness the §VII prediction study scores (Obs. 7), answered from the
// occupancy index that also decides Case 3 above.
func (a *Analysis) IdleEvents() []bool {
	idle := make([]bool, len(a.Events))
	for i, ev := range a.Events {
		idle[i] = !a.anyRunningAt(ev)
	}
	return idle
}

// anyRunningAt reports whether any job was running on any of the
// event's midplanes when it began.
func (a *Analysis) anyRunningAt(ev *filter.Event) bool {
	for _, mp := range ev.Midplanes {
		if _, ok := a.occupancy.runningOn(mp, ev.First); ok {
			return true
		}
	}
	return false
}

// IdentificationCensus tallies types and event volumes by verdict; the
// paper reports 31 interruption-related types, 2 nonfatal types, 49
// undetermined types, and 20.84% of fatal events not impacting jobs.
type IdentificationCensus struct {
	TypesInterruptionRelated, TypesNonFatal, TypesUndetermined int
	// NonImpactingEventFraction is the fraction of fatal events that did
	// not interrupt any job (case 2 + case 3 events), Obs. 1's 20.84%
	// counterpart computed over nonfatal-type and conflicting events.
	NonImpactingEventFraction float64
	// NonFatalEventFraction is the fraction of events belonging to
	// nonfatal types.
	NonFatalEventFraction float64
}

// Census summarizes the identification outcome.
func (a *Analysis) Census() IdentificationCensus {
	var c IdentificationCensus
	total, nonImpacting, nonFatalEvents := 0, 0, 0
	for _, id := range a.Identification {
		switch id.Verdict {
		case VerdictInterruptionRelated:
			c.TypesInterruptionRelated++
		case VerdictNonFatal:
			c.TypesNonFatal++
			nonFatalEvents += id.Events
		default:
			c.TypesUndetermined++
		}
		total += id.Events
		nonImpacting += id.Case2 + id.Case3
	}
	if total > 0 {
		c.NonImpactingEventFraction = float64(nonImpacting) / float64(total)
		c.NonFatalEventFraction = float64(nonFatalEvents) / float64(total)
	}
	return c
}
