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
	"slices"
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
	// jobIDs[p] and execIDs[p] are the dictionary IDs of Jobs.All()[p]'s
	// ID and ExecFile; jobs that repeat an ID share the first one's, as a
	// Lookup would answer.
	jobIDs  []symtab.JobID
	execIDs []symtab.ExecID
	// execPos holds every position into Jobs.All(), grouped by ExecID
	// and StartTime-ordered within each group; the runs of executable e
	// are execPos[execOff[e]:execOff[e+1]] (see ExecRuns).
	execOff []int32
	execPos []int32
	// interruptedAt[p] reports whether some interruption names the job
	// ID of Jobs.All()[p].
	interruptedAt []bool
	interByEvent  map[*filter.Event][]int // indices into Interruptions
	occupancy     *occupancyIndex
	span          campaignSpan
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
// No binary calls it: it stays as the in-memory reference that the
// AnalyzeStream and AnalyzeRun equivalence tests here and in the root
// package compare against.
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
	// executables are interned once, in byEnd order (a JobID is its
	// job's index into Jobs.All()); re-interning already-known symbols
	// is a no-op, so the numbering is the same whether the caller
	// interned eagerly or not. Every later stage reads a position's IDs
	// from jobIDs and execIDs and never hashes a job's executable or ID
	// again.
	all := a.Jobs.All()
	// Job IDs are nearly all distinct, so their dictionary is sized for
	// every job up front; executables repeat (1,176 of 8,743 jobs in the
	// 30-day benchmark campaign), and sizing theirs the same way
	// allocated 420 KB more without interning faster.
	a.tab.Jobs.Grow(len(all))
	a.jobIDs = make([]symtab.JobID, len(all))
	a.execIDs = make([]symtab.ExecID, len(all))
	for p := range all {
		j := &all[p]
		a.jobIDs[p] = a.tab.Jobs.Intern(j.ID)
		a.execIDs[p] = a.tab.Execs.Intern(j.ExecFile)
	}
	a.groupExecRuns()
	a.match()
	a.interruptedAt = make([]bool, len(all))
	interrupted := a.interruptedJobs()
	for p, id := range a.jobIDs {
		a.interruptedAt[p] = interrupted[id]
	}

	// Stage 3: three-case identification.
	a.identify()

	// Stage 4: system-failure vs application-error classification.
	a.classify()

	// Stage 5: job-related filtering.
	a.jobFilter()

	a.Syms = a.tab.Freeze()
}

// groupExecRuns groups the positions into Jobs.All() by ExecID with a
// counting sort, then orders each executable's runs by StartTime. Each
// group starts in position order, as the string-keyed grouping it
// replaces did, and is sorted by the same pdqsort: slices.SortFunc and
// sort.Slice are generated from one template in the standard library
// and make the same comparisons and swaps, so equal StartTimes keep
// the order every per-executable derivation (and golden) depends on
// (TestExecRunsMatchByExecFile checks it against a sort.Slice oracle).
// SortFunc allocates nothing per group.
func (a *Analysis) groupExecRuns() {
	n := a.tab.Execs.Len()
	off := make([]int32, n+1)
	for _, e := range a.execIDs {
		off[e+1]++
	}
	for e := 0; e < n; e++ {
		off[e+1] += off[e]
	}
	// Fill each group from its start, advancing off[e] to the next
	// group's start, then shift the offsets back by one group.
	pos := make([]int32, len(a.execIDs))
	for p, e := range a.execIDs {
		pos[off[e]] = int32(p)
		off[e]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	jobs := a.Jobs.All()
	for e := 0; e < n; e++ {
		runs := pos[off[e]:off[e+1]]
		if len(runs) < 2 {
			continue
		}
		slices.SortFunc(runs, func(x, y int32) int {
			return jobs[x].StartTime.Compare(jobs[y].StartTime)
		})
	}
	a.execOff, a.execPos = off, pos
}

// ExecRuns returns the runs of executable e (an ExecID that Syms.Execs
// resolves) as positions into Jobs.All(), in StartTime order: the
// resubmission history the per-executable analyses walk. The slice is
// capped at its length and shared: callers must not mutate it.
func (a *Analysis) ExecRuns(e symtab.ExecID) []int32 {
	lo, hi := a.execOff[e], a.execOff[e+1]
	return a.execPos[lo:hi:hi]
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
