package main

// The in-process runs: each composes, from the same public calls, what
// `coanalyze -ras -job` does (repro.Load then RenderAll) or what its
// -mem-budget path does (runMembound), with a span around every call.
// With a nil tracer the same code is the untraced reference whose
// output every run of the real CLI is checked against.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/store"
	"repro/internal/symtab"
)

// renderOrder is Report.RenderAll's artifact order, with the step title
// RenderAll prints when an artifact is skipped.
var renderOrder = []struct{ key, title string }{
	{"t1", "Table I"}, {"t2", "Table II"}, {"t3", "Table III"},
	{"pipeline", "pipeline"}, {"obs1", "identification"},
	{"obs2", "classification"}, {"obs3", "job filter"},
	{"f2", "Figure 2"}, {"f3", "Figure 3"}, {"t4", "Table IV"},
	{"mpfits", "midplane fits"}, {"f4", "Figure 4"}, {"f5", "Figure 5"},
	{"f6", "Figure 6"}, {"t5", "Table V"}, {"obs8", "propagation"},
	{"f7", "Figure 7"}, {"t6", "Table VI"}, {"features", "features"},
	{"types", "event types"}, {"models", "model comparison"},
	{"predict", "prediction study"}, {"ckpt", "checkpoint study"},
}

// analysis is what an in-process run produced: the rendered report and
// the per-layer counts the trace reports next to its spans.
type analysis struct {
	digest    string            // sha256 of the full report
	artifacts map[string][]byte // every artifact that rendered
	filter    filter.Stats
	events    int // events surviving the cascade
	spool     store.SpoolStats
	merge     store.ScanStats
	scan      store.ScanStats // /v1/scan pushdown, summed over calls
	publishes int
}

// runBatch is repro.Load + RenderAll over the workload's logs.
func runBatch(tr *tracer, in inputs) (analysis, error) {
	var out analysis
	rf, err := os.Open(in.rasPath)
	if err != nil {
		return out, err
	}
	defer rf.Close()
	jf, err := os.Open(in.jobPath)
	if err != nil {
		return out, err
	}
	defer jf.Close()

	sp := tr.begin("raslog.decode")
	recs, err := raslog.ReadAllParallel(rf, 0)
	tr.end(sp, 0, len(recs))
	if err != nil {
		return out, fmt.Errorf("reading RAS log: %w", err)
	}
	jl, err := decodeJobs(tr, jf)
	if err != nil {
		return out, err
	}

	sp = tr.begin("raslog.store")
	st := raslog.NewStore(recs)
	fatal := st.Fatal()
	tr.end(sp, len(recs), len(fatal))

	// core.Analyze hands its Parallelism to the cascade; coanalyze's
	// default is 0 (GOMAXPROCS) for both.
	acfg := core.DefaultConfig()
	tab := symtab.NewTable()
	sp = tr.begin("filter.pipeline")
	events, fstats := filter.Pipeline(acfg.Filter, tab, fatal)
	tr.end(sp, len(fatal), len(events))

	first, last := st.Span()
	a, err := analyzeStream(tr, acfg, tab, events, fstats, jl, first, last)
	if err != nil {
		return out, err
	}

	sp = tr.begin("repro.logstats")
	var ls repro.LogStats
	all := st.All()
	for i := range all {
		ls.ObserveRAS(&all[i])
	}
	tr.end(sp, len(all), ls.RASRecords)

	out.digest, out.artifacts, err = renderAll(tr, repro.NewStreamReport(a, jl, ls))
	out.filter, out.events = fstats, len(events)
	return out, err
}

// runMembound is coanalyze -mem-budget: one sequential pass spools every
// RAS row toward sorted on-disk runs, the runs merge back through the
// streaming cascade, and the analysis proceeds as in runBatch.
func runMembound(tr *tracer, in inputs, spillDir string) (analysis, error) {
	var out analysis
	rf, err := os.Open(in.rasPath)
	if err != nil {
		return out, err
	}
	defer rf.Close()

	// The pass alternates decode, Table I aggregates and spool per
	// record, so each layer accumulates its own laps.
	pass := tr.begin("bench.spool_pass")
	dec, agg, add := tr.accum("raslog.decode"), tr.accum("repro.logstats"), tr.accum("store.spool_add")
	var (
		stats           repro.LogStats
		rasFirst        int64
		rasLast         int64
		firstT, firstID int64
		sp              = store.NewSpool(spillDir, in.rasBytes/10)
		rd              = raslog.NewReader(rf)
		mark            = time.Now()
	)
	for {
		rec, err := rd.Read()
		dec.lap(&mark)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return out, fmt.Errorf("reading RAS log: line %d: %w", rd.Line(), err)
		}
		t := rec.EventTime.UnixNano()
		weight := int64(len(rec.MarshalLine()) + 1)
		stats.RASRecords++
		stats.RASBytes += int(weight)
		if stats.RASRecords == 1 || t < rasFirst {
			rasFirst = t
		}
		if stats.RASRecords == 1 || t > rasLast {
			rasLast = t
		}
		if rec.Fatal() {
			stats.FatalRecords++
			if !stats.HasFatal || t < firstT || (t == firstT && rec.RecID < firstID) {
				stats.FirstFatal = rec
				stats.HasFatal = true
				firstT, firstID = t, rec.RecID
			}
		}
		agg.lap(&mark)
		err = sp.Add(rec.RecID, t, rec.ErrCode, rec.Location,
			int32(rec.Component), int32(rec.Severity), rec.Fatal(), weight)
		add.lap(&mark)
		if err != nil {
			return out, err
		}
	}
	tr.finish(dec, stats.RASRecords)
	tr.finish(agg, stats.RASRecords)
	tr.finish(add, stats.RASRecords)
	tr.end(pass, 0, stats.RASRecords)

	s := tr.begin("store.spool_finish")
	cat, spStats, err := sp.Finish()
	tr.end(s, int(spStats.Rows), spStats.Runs)
	if err != nil {
		return out, err
	}
	defer cat.Close()

	jf, err := os.Open(in.jobPath)
	if err != nil {
		return out, err
	}
	defer jf.Close()
	jl, err := decodeJobs(tr, jf)
	if err != nil {
		return out, err
	}

	acfg := core.DefaultConfig()
	tab := symtab.NewTable()
	inc := filter.NewIncremental(acfg.Filter, tab)
	pass = tr.begin("bench.merge_pass")
	merge, feed := tr.accum("store.merge"), tr.accum("filter.incremental")
	mark = time.Now()
	mr, err := cat.Merge(filter.CascadeQuery())
	merge.lap(&mark)
	if err != nil {
		return out, err
	}
	for {
		row, ok, err := mr.Next()
		merge.lap(&mark)
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		err = inc.FeedRow(row)
		feed.lap(&mark)
		if err != nil {
			return out, err
		}
	}
	events, fstats := inc.Snapshot()
	feed.lap(&mark)
	tr.finish(merge, int(mr.Stats().Rows))
	tr.finish(feed, len(events))
	tr.end(pass, int(mr.Stats().Rows), len(events))

	a, err := analyzeStream(tr, acfg, tab, events, fstats, jl, nsTime(rasFirst), nsTime(rasLast))
	if err != nil {
		return out, err
	}
	out.digest, out.artifacts, err = renderAll(tr, repro.NewStreamReport(a, jl, stats))
	out.filter, out.events = fstats, len(events)
	out.spool, out.merge = spStats, mr.Stats()
	return out, err
}

func decodeJobs(tr *tracer, r io.Reader) (*joblog.Log, error) {
	sp := tr.begin("joblog.decode")
	jobs, err := joblog.ReadAllParallel(r, 0)
	var jl *joblog.Log
	if err == nil {
		jl = joblog.NewLog(jobs)
	}
	tr.end(sp, 0, len(jobs))
	if err != nil {
		return nil, fmt.Errorf("reading job log: %w", err)
	}
	return jl, nil
}

// analyzeStream builds the occupancy index and runs the co-analysis
// downstream of the cascade, as both coanalyze paths do.
func analyzeStream(tr *tracer, acfg core.Config, tab *symtab.Table, events []*filter.Event,
	fstats filter.Stats, jl *joblog.Log, rasFirst, rasLast time.Time) (*core.Analysis, error) {
	sp := tr.begin("core.occupancy")
	var bld core.OccupancyBuilder
	for _, j := range jl.All() {
		bld.Add(j)
	}
	occ := bld.Snapshot()
	tr.end(sp, jl.Len(), jl.Len())

	jFirst, jLast := jl.Span()
	start, end := core.UnionSpan(rasFirst, rasLast, jFirst, jLast)
	sp = tr.begin("core.analyze")
	a, err := core.AnalyzeStream(acfg, core.StreamInput{
		Tab:         tab,
		Events:      events,
		FilterStats: fstats,
		Jobs:        jl,
		Occupancy:   occ,
		SpanStart:   start,
		SpanEnd:     end,
	})
	n := 0
	if err == nil {
		n = len(a.Interruptions)
	}
	tr.end(sp, len(events), n)
	return a, err
}

// renderAll frames the report exactly as Report.RenderAll does, one span
// per artifact, and returns the output's sha256 with each rendered
// artifact's bytes.
func renderAll(tr *tracer, rep *repro.Report) (string, map[string][]byte, error) {
	fns := repro.Artifacts()
	h := sha256.New()
	arts := make(map[string][]byte, len(renderOrder))
	parent := tr.begin("repro.render")
	for _, a := range renderOrder {
		fn, ok := fns[a.key]
		if !ok {
			return "", nil, fmt.Errorf("artifact %q is not registered", a.key)
		}
		var buf bytes.Buffer
		sp := tr.begin("repro.render." + a.key)
		err := fn(rep, &buf)
		tr.end(sp, 1, buf.Len())
		if err != nil {
			fmt.Fprintf(h, "[%s skipped: %v]\n\n", a.title, err)
			continue
		}
		arts[a.key] = buf.Bytes()
		h.Write(buf.Bytes())
		h.Write([]byte{'\n'})
	}
	tr.end(parent, len(renderOrder), len(arts))
	return hex.EncodeToString(h.Sum(nil)), arts, nil
}

// nsTime converts unix nanoseconds to a UTC time, 0 to the zero time.
func nsTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}
