// Package core implements the paper's co-analysis methodology: matching
// filtered RAS events against job terminations to find true job
// interruptions (§IV), identifying interruption-related fatal event
// types via the three-case rule (§IV-A), separating system failures
// from application errors (§IV-B), removing job-related redundancy
// (§IV-C), and deriving the failure and job-interruption
// characteristics of §V and §VI.
//
// The package consumes only the two logs — never the generator-side
// ground truth — so its inferences can be scored against the oracle in
// tests, standing in for the paper's verification by Argonne
// administrators.
package core

import (
	"fmt"
	"time"

	"repro/internal/filter"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/symtab"
)

// Config parameterizes the co-analysis.
type Config struct {
	// Filter holds the preprocessing cascade thresholds.
	Filter filter.Config
	// MatchTolerance is the slack allowed between a job's end time and
	// the matched event's time span.
	MatchTolerance time.Duration
}

// DefaultConfig returns the thresholds used throughout the paper's
// evaluation.
func DefaultConfig() Config {
	return Config{
		Filter:         filter.DefaultConfig(),
		MatchTolerance: 5 * time.Minute,
	}
}

// Interruption is one job termination attributed to a fatal event.
type Interruption struct {
	// Job is the interrupted job.
	Job joblog.Job
	// Event is the fatal event that terminated it.
	Event *filter.Event
	// Exec and JobID are the dictionary IDs of Job.ExecFile and Job.ID;
	// the grouping stages key on these instead of re-hashing strings.
	Exec  symtab.ExecID
	JobID symtab.JobID
}

// Analysis is the result of the full co-analysis pipeline.
type Analysis struct {
	cfg Config

	// Jobs is the job log under analysis.
	Jobs *joblog.Log
	// Events are the fatal events surviving temporal-spatial-causality
	// filtering, time-ordered.
	Events []*filter.Event
	// FilterStats reports the preprocessing compression.
	FilterStats filter.Stats
	// Interruptions are the matched job interruptions, in event order.
	Interruptions []Interruption
	// Identification classifies each ERRCODE by the three-case rule,
	// keyed by the code's dictionary ID (resolve names via Syms).
	Identification map[symtab.ErrcodeID]Identification
	// Classification assigns each fatal ERRCODE a system/application
	// origin, keyed like Identification.
	Classification map[symtab.ErrcodeID]Classification
	// Independent are the events surviving job-related filtering.
	Independent []*filter.Event
	// JobRedundant are the events job-related filtering removed.
	JobRedundant []*filter.Event
	// Syms resolves every typed ID in the result (event codes, locations,
	// executables, job IDs) back to its name. Safe for concurrent
	// readers.
	Syms *symtab.Snapshot

	// internal indexes
	tab *symtab.Table
	// jobIDs[p] is the dictionary ID of Jobs.All()[p].ID; jobs that
	// repeat an ID share the first one's, as a Lookup would answer.
	jobIDs       []symtab.JobID
	interByEvent map[*filter.Event][]int // indices into Interruptions
	occupancy    *occupancyIndex
	span         campaignSpan
}

type campaignSpan struct {
	start, end time.Time
}

// Days returns the campaign length in whole days (rounded up).
func (s campaignSpan) Days() int {
	d := s.end.Sub(s.start)
	days := int(d / (24 * time.Hour))
	if d%(24*time.Hour) != 0 {
		days++
	}
	return days
}

// Analyze runs the full pipeline over a RAS store and a job log: the
// filter cascade over the store's FATAL records, an occupancy index
// over the log's jobs, and AnalyzeStream over both. It composes the
// stages AnalyzeRun composes, over a store instead of a sorted run.
func Analyze(cfg Config, ras *raslog.Store, jobs *joblog.Log) (*Analysis, error) {
	if ras == nil || jobs == nil {
		return nil, fmt.Errorf("core: nil input log")
	}
	tab := symtab.NewTable()
	events, fstats := filter.Pipeline(cfg.Filter, tab, ras.Fatal())
	rFirst, rLast := ras.Span()
	return analyzeLog(cfg, tab, events, fstats, rFirst, rLast, jobs)
}

// finish runs the co-analysis stages downstream of the filter cascade.
// It expects a.Events,
// a.FilterStats, a.Jobs, a.occupancy and a.span to be set, with a.tab
// holding the codes and locations the cascade interned.
func (a *Analysis) finish() {
	// Stage 2: match events against job terminations. Jobs and
	// executables are interned in byEnd order (a JobID is its job's index
	// into Jobs.All()); re-interning already-known symbols is a no-op, so
	// the numbering is the same whether the caller interned eagerly or
	// not. The per-job passes read each position's ID from jobIDs.
	all := a.Jobs.All()
	a.jobIDs = make([]symtab.JobID, len(all))
	for p := range all {
		j := &all[p]
		a.jobIDs[p] = a.tab.Jobs.Intern(j.ID)
		a.tab.Execs.Intern(j.ExecFile)
	}
	a.match()

	// Stage 3: three-case identification.
	a.identify()

	// Stage 4: system-failure vs application-error classification.
	a.classify()

	// Stage 5: job-related filtering.
	a.jobFilter()

	a.Syms = a.tab.Freeze()
}

// EventInterruptions returns the interruptions attributed to ev.
func (a *Analysis) EventInterruptions(ev *filter.Event) []Interruption {
	idx := a.interByEvent[ev]
	out := make([]Interruption, 0, len(idx))
	for _, i := range idx {
		out = append(out, a.Interruptions[i])
	}
	return out
}

// Config returns the thresholds the analysis ran with.
func (a *Analysis) Config() Config { return a.cfg }

// Span returns the campaign start and end.
func (a *Analysis) Span() (start, end time.Time) { return a.span.start, a.span.end }

// ClassOf returns the inferred class of an interruption's event.
func (a *Analysis) ClassOf(in Interruption) Class {
	return a.Classification[in.Event.Code].Class
}

// InterruptionsByClass splits the matched interruptions by inferred
// cause: category 1 (system failures) and category 2 (application
// errors), per §VI-D.
func (a *Analysis) InterruptionsByClass() (system, application []Interruption) {
	for _, in := range a.Interruptions {
		if a.ClassOf(in) == ClassApplication {
			application = append(application, in)
		} else {
			system = append(system, in)
		}
	}
	return system, application
}
