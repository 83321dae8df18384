package main

// The bounded-memory analysis path behind -mem-budget: instead of
// holding the FATAL records in memory, the parallel FATAL-only decode
// (raslog.ScanFatal) counts every noise record toward Table I's totals
// at decode and spools only the FATAL rows, which are all the cascade
// reads, into sorted on-disk segment runs (store.Spool flushes whenever
// the buffered FATAL event payload exceeds the budget). The runs merge
// back into the streaming filter cascade, and the analysis proceeds
// exactly as the serving layer's epoch publication does. Noise rows
// never reach disk. Every stage downstream of the raw decode is the
// same code the batch path is already proven byte-equivalent to, so
// the rendered artifacts are byte-identical to an unconstrained run
// over the same logs.

import (
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/store"
	"repro/internal/symtab"
)

// runMembound analyzes rasLog/jobLog under a spill budget and returns
// the report. spillDir holds the segment runs; when empty a temporary
// directory is used and removed afterwards.
func runMembound(budget int64, spillDir, rasP, jobP string, parallelism int, stderr io.Writer) (*repro.Report, error) {
	if spillDir == "" {
		dir, err := os.MkdirTemp("", "coanalyze-spill-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		spillDir = dir
	} else if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}

	rf, err := os.Open(rasP)
	if err != nil {
		return nil, err
	}
	defer rf.Close()

	// One parallel FATAL-only decode: noise records are validated and
	// counted into the totals, and each FATAL record is spooled toward
	// its sorted run in file order. The budget's currency is the
	// record's encoded line length — the bytes Table I counts — so a
	// budget smaller than the FATAL event payload guarantees a spill.
	var (
		sp    = store.NewSpool(spillDir, budget)
		first *raslog.Record // Table II's example record
	)
	tot, err := raslog.ScanFatal(rf, parallelism, func(rec *raslog.Record) error {
		// Strictly before: on a full tie the first one seen stays, as in
		// the batch path's stable sort.
		if first == nil || raslog.Before(rec, first) {
			r := *rec
			first = &r
		}
		return sp.Add(rec.RecID, rec.EventTime.UnixNano(), rec.ErrCode, rec.Location,
			int32(rec.Component), int32(rec.Severity), true, int64(rec.MarshaledLen()+1))
	})
	if err != nil {
		return nil, fmt.Errorf("reading RAS log: %w", err)
	}
	stats := repro.StatsFromTotals(tot, first)

	cat, spStats, err := sp.Finish()
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	fmt.Fprintf(stderr, "coanalyze: mem-budget %d: rows=%d runs=%d budget_flushes=%d spilled_bytes=%d\n",
		budget, spStats.Rows, spStats.Runs, spStats.Flushes, spStats.SpilledBytes)

	jf, err := os.Open(jobP)
	if err != nil {
		return nil, err
	}
	defer jf.Close()
	jobs, err := joblog.ReadAllParallel(jf, parallelism)
	if err != nil {
		return nil, fmt.Errorf("reading job log: %w", err)
	}
	jl := joblog.NewLog(jobs)

	// Merge the runs back into one (EventTime, RecID)-ordered stream of
	// the rows the cascade consumes.
	acfg := core.DefaultConfig()
	tab := symtab.NewTable()
	inc := filter.NewIncremental(acfg.Filter, tab)
	mr, err := cat.Merge(filter.CascadeQuery())
	if err != nil {
		return nil, err
	}
	for {
		row, ok, err := mr.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := inc.FeedRow(row); err != nil {
			return nil, err
		}
	}
	ms := mr.Stats()
	fmt.Fprintf(stderr, "coanalyze: merge: segments=%d zone_skipped=%d scanned=%d fatal_rows=%d\n",
		ms.Segments, ms.Skipped, ms.Scanned, ms.Rows)

	events, fstats := inc.Snapshot()
	var bld core.OccupancyBuilder
	for _, j := range jl.All() {
		bld.Add(j)
	}
	jFirst, jLast := jl.Span()
	start, end := core.UnionSpan(stats.First, stats.Last, jFirst, jLast)
	a, err := core.AnalyzeStream(acfg, core.StreamInput{
		Tab:         tab,
		Events:      events,
		FilterStats: fstats,
		Jobs:        jl,
		Occupancy:   bld.Snapshot(),
		SpanStart:   start,
		SpanEnd:     end,
	})
	if err != nil {
		return nil, err
	}
	return repro.NewStreamReport(a, jl, stats), nil
}
