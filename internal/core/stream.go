package core

// The analysis entry point: AnalyzeStream builds an Analysis from
// state a long-running ingester (internal/serve) maintains
// incrementally — the filter cascade's Snapshot, an occupancy index
// grown job by job, and a cloned symbol table. Analyze is the same
// call over state built in one pass from whole logs, so batch and
// streaming runs share every stage (TestAnalyzeStreamMatchesAnalyze
// checks the streaming state against the batch one).

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/joblog"
	"repro/internal/symtab"
)

// Occupancy is an immutable occupancy index snapshot, safe to share
// with a published Analysis while the builder keeps growing.
type Occupancy struct {
	ix *occupancyIndex
}

// OccupancyBuilder grows the job-occupancy index incrementally. Add
// jobs in byEnd order — (EndTime, ID) ascending, the order
// joblog.Log.All presents — and Snapshot at publication points. Not
// safe for concurrent use; the serving layer owns it under its ingest
// lock.
type OccupancyBuilder struct {
	byEnd []joblog.Job
	// raw holds each midplane's jobs in append (byEnd) order.
	raw [bgp.NumMidplanes][]joblog.Job
	// sorted caches the sorted copy per midplane and maxEnd its EndTime
	// prefix maximum; dirty marks midplanes whose cache is stale. A
	// snapshot re-sorts only dirty midplanes.
	sorted [bgp.NumMidplanes][]joblog.Job
	maxEnd [bgp.NumMidplanes][]time.Time
	dirty  [bgp.NumMidplanes]bool
}

// Add appends one job. Jobs must arrive in byEnd order; the serving
// layer validates that before calling.
func (b *OccupancyBuilder) Add(j joblog.Job) {
	b.byEnd = append(b.byEnd, j)
	for mp := j.Partition.Start; mp < j.Partition.End(); mp++ {
		b.raw[mp] = append(b.raw[mp], j)
		b.dirty[mp] = true
	}
}

// Len returns the number of jobs added.
func (b *OccupancyBuilder) Len() int { return len(b.byEnd) }

// Snapshot returns an immutable index over the jobs added so far. The
// per-midplane lists are fresh sorted copies (cached until the midplane
// next changes), and the byEnd view is clipped so later appends cannot
// reach it — snapshots never observe subsequent Adds.
func (b *OccupancyBuilder) Snapshot() *Occupancy {
	ix := &occupancyIndex{byEnd: b.byEnd[:len(b.byEnd):len(b.byEnd)]}
	for mp := range b.raw {
		if b.dirty[mp] {
			js := append([]joblog.Job(nil), b.raw[mp]...)
			sort.Slice(js, func(a, c int) bool { return js[a].StartTime.Before(js[c].StartTime) })
			b.sorted[mp] = js
			b.maxEnd[mp] = prefixMaxEnd(js)
			b.dirty[mp] = false
		}
		ix.perMp[mp] = b.sorted[mp]
		ix.maxEnd[mp] = b.maxEnd[mp]
	}
	return &Occupancy{ix: ix}
}

// StreamInput is the incrementally maintained state AnalyzeStream
// consumes. All of it must describe the same prefix of the event and
// job streams, and none of it may be mutated afterwards — the Analysis
// retains everything.
type StreamInput struct {
	// Tab is the symbol table holding the codes and locations the
	// incremental cascade interned, in stream order. AnalyzeStream
	// interns jobs and executables into it and freezes it, so pass a
	// private clone (symtab.Table.Clone), never the live ingest table.
	Tab *symtab.Table
	// Events and FilterStats are the incremental cascade's Snapshot.
	Events      []*filter.Event
	FilterStats filter.Stats
	// Jobs is the job log prefix, in byEnd order.
	Jobs *joblog.Log
	// Occupancy is the occupancy snapshot over exactly Jobs.
	Occupancy *Occupancy
	// SpanStart and SpanEnd delimit the campaign: the union of the RAS
	// stream's record-time span — all records, noise included, not just
	// the fatal survivors — and the job log's span (UnionSpan).
	SpanStart, SpanEnd time.Time
}

// AnalyzeStream runs the co-analysis stages downstream of the filter
// cascade over incrementally maintained state.
func AnalyzeStream(cfg Config, in StreamInput) (*Analysis, error) {
	if in.Tab == nil || in.Jobs == nil || in.Occupancy == nil {
		return nil, fmt.Errorf("core: nil stream input")
	}
	if in.Jobs.Len() == 0 {
		return nil, fmt.Errorf("core: empty job log")
	}
	if cfg.MatchTolerance <= 0 {
		cfg.MatchTolerance = 5 * time.Minute
	}
	a := &Analysis{
		cfg:         cfg,
		Jobs:        in.Jobs,
		tab:         in.Tab,
		Events:      in.Events,
		FilterStats: in.FilterStats,
		occupancy:   in.Occupancy.ix,
		span:        campaignSpan{start: in.SpanStart, end: in.SpanEnd},
	}
	a.finish()
	return a, nil
}

// UnionSpan merges the two logs' spans into the campaign span: the RAS
// span, widened by the job span (with the job start winning when the
// RAS side is empty).
func UnionSpan(rasFirst, rasLast, jobFirst, jobLast time.Time) (start, end time.Time) {
	start, end = rasFirst, rasLast
	if jobFirst.Before(start) || start.IsZero() {
		start = jobFirst
	}
	if jobLast.After(end) {
		end = jobLast
	}
	return start, end
}
