package repro

// Raw-log aggregates and streaming reports: no report built from logs
// keeps the non-fatal records, which are nearly all of a RAS log, so
// the few renderers that consume raw-log aggregates (Table I's sizes,
// Table II's example record, the Summary counters) read them from
// LogStats. A long-running ingester (internal/serve) accumulates it
// record by record, LoadBounded assembles it from the FATAL-only
// decode's raslog.Totals, and Run folds it from the simulated store.
// NewStreamReport assembles a Report from a streaming analysis plus
// those aggregates; everything else renders from the Analysis and the
// job log exactly as in the batch path, which is what makes the
// serve-vs-batch byte-equivalence tests possible.

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/raslog"
)

// LogStats are the raw RAS-log aggregates the report needs once the
// store itself is gone. Table I counts re-marshaled line bytes (not
// raw input bytes), so accumulating from parsed records is exact.
type LogStats struct {
	// RASRecords counts all RAS records, noise included.
	RASRecords int
	// RASBytes is the re-marshaled log size in bytes, newlines included.
	RASBytes int
	// FatalRecords counts FATAL-severity records.
	FatalRecords int
	// First and Last are the minimum and maximum EventTime over all
	// records, noise included; zero when RASRecords is 0.
	First, Last time.Time
	// FirstFatal is the first FATAL record in (EventTime, RecID) order —
	// Table II's example; among full ties, the earliest observed, as the
	// stable sort of the batch store orders them. HasFatal guards its
	// validity.
	FirstFatal raslog.Record
	HasFatal   bool
}

// ObserveRAS folds one RAS record into the aggregates, in any order.
// It does not allocate.
func (ls *LogStats) ObserveRAS(rec *raslog.Record) {
	o := LogStats{RASRecords: 1, RASBytes: rec.MarshaledLen() + 1, First: rec.EventTime, Last: rec.EventTime}
	if rec.Fatal() {
		o.FatalRecords, o.FirstFatal, o.HasFatal = 1, *rec, true
	}
	ls.Merge(&o)
}

// Merge folds o, the aggregates of records observed after ls's, into
// ls: the chunk totals of one stream merge in stream order.
func (ls *LogStats) Merge(o *LogStats) {
	if o.RASRecords == 0 {
		return
	}
	if ls.RASRecords == 0 || o.First.Before(ls.First) {
		ls.First = o.First
	}
	if ls.RASRecords == 0 || o.Last.After(ls.Last) {
		ls.Last = o.Last
	}
	ls.RASRecords += o.RASRecords
	ls.RASBytes += o.RASBytes
	ls.FatalRecords += o.FatalRecords
	// Strictly before: on a full tie the earlier observation stays.
	if o.HasFatal && (!ls.HasFatal || raslog.Before(&o.FirstFatal, &ls.FirstFatal)) {
		ls.FirstFatal, ls.HasFatal = o.FirstFatal, true
	}
}

// NewStreamReport assembles a Report from a streaming analysis
// (core.AnalyzeStream) and pre-accumulated raw-log aggregates. The
// resulting report renders every artifact identically to a batch
// Report over the same records, except the one replaying the sorted
// FATAL run (RenderSensitivity), which returns an error instead: the
// report retains no run.
func NewStreamReport(a *core.Analysis, jobs *joblog.Log, rasStats LogStats) *Report {
	start, end := a.Span()
	return &Report{
		analysis: a,
		jobs:     jobs,
		days:     int(end.Sub(start).Hours()/24) + 1,
		stats:    rasStats,
	}
}

// Artifacts returns the named report fragments of the paper's
// evaluation — the registry shared by cmd/coanalyze and the serving
// layer. The map is freshly allocated per call; callers may mutate
// their copy.
func Artifacts() map[string]func(*Report, io.Writer) error {
	return map[string]func(*Report, io.Writer) error{
		"t1":       (*Report).RenderTableI,
		"t2":       (*Report).RenderTableII,
		"t3":       (*Report).RenderTableIII,
		"pipeline": (*Report).RenderPipeline,
		"obs1":     (*Report).RenderIdentification,
		"obs2":     (*Report).RenderClassification,
		"obs3":     (*Report).RenderJobFilter,
		"f2":       (*Report).RenderFigure2,
		"f3":       (*Report).RenderFigure3,
		"t4":       (*Report).RenderTableIV,
		"f4":       (*Report).RenderFigure4,
		"f5":       (*Report).RenderFigure5,
		"f6":       (*Report).RenderFigure6,
		"t5":       (*Report).RenderTableV,
		"obs8":     (*Report).RenderPropagation,
		"f7":       (*Report).RenderFigure7,
		"t6":       (*Report).RenderTableVI,
		"features": (*Report).RenderFeatures,
		"predict":  (*Report).RenderPrediction,
		"ckpt":     (*Report).RenderCheckpointStudy,
		"types":    (*Report).RenderEventTypes,
		"models":   (*Report).RenderModelComparison,
		"sweep":    (*Report).RenderSensitivity,
		"mpfits":   (*Report).RenderMidplaneFits,
	}
}
