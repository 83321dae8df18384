// Package serve is the long-running co-analysis service behind cmd/bgpd:
// it ingests RAS and job events continuously, maintains the filter
// cascade and the downstream analyses incrementally, and answers
// concurrent queries from immutable published views.
//
// The design separates three concerns with three locks-or-less:
//
//   - Ingest mutates the live state (incremental cascade, occupancy
//     builder, segment set, symbol table) under the engine mutex. A
//     batch is validated in full before any of it is applied, so a
//     rejected batch leaves the engine exactly as it was.
//   - Publish snapshots the live state under the same mutex — O(unsealed
//     tail), not O(history) — then runs the expensive analysis stages
//     outside it, so readers and ingesters never wait on a fit. The
//     result is an Epoch: a self-contained, immutable view (private
//     symtab clone, frozen occupancy, the segment set's counts)
//     swapped in atomically.
//   - Queries read whatever Epoch pointer is current. Every response is
//     consistent with exactly one publication; nothing a reader touches
//     is ever written again.
//
// A quiesced engine (all input ingested, then Quiesce) publishes an
// epoch whose report fragments are byte-identical to the batch
// pipeline's output over the same logs — the equivalence the
// incremental cascade (filter.Incremental) and streaming analysis
// entry point (core.AnalyzeStream) are built around, and which
// TestServeMatchesBatch pins under the race detector.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/store"
	"repro/internal/symtab"
)

// Config parameterizes an Engine.
type Config struct {
	// Analysis holds the co-analysis thresholds; zero values take the
	// batch defaults (core.DefaultConfig semantics via AnalyzeStream).
	Analysis core.Config
	// SealRows is the segment row budget (0 = store.DefaultSealRows).
	SealRows int
	// DataDir, when non-empty, enables checkpoint persistence: every
	// sealed segment is written there (its columnar segment file, its
	// jobs, its manifest) before the ingest that sealed it is
	// acknowledged, and NewEngine recovers the sealed prefix from it
	// after a crash.
	DataDir string
	// SealHook, when non-nil, is called before each persistence step
	// ("seg", "job", "manifest") with the step name; returning an error
	// aborts the seal at that point. It exists for fault-injection
	// tests.
	SealHook func(step string) error
	// MemBudget, when positive, bounds the resident column payload (in
	// bytes): after each persisted seal, sealed segments past the budget
	// (oldest first) drop their resident bytes and are read from their
	// committed segment files in DataDir through the zone-map-filtered
	// reader. A spill writes nothing. Requires DataDir.
	MemBudget int64
}

// Engine is the serving core. All exported methods are safe for
// concurrent use.
type Engine struct {
	cfg Config

	mu  sync.Mutex
	tab *symtab.Table
	inc *filter.Incremental
	// occ holds the one copy of the accepted jobs (occ.Jobs), in
	// (EndTime, ID) order.
	occ   core.OccupancyBuilder
	stats repro.LogStats
	segs  store.SegmentSet

	// lastRecTime/lastRecID is the ordering cursor over the full RAS
	// stream; batches must be nondecreasing in (EventTime, RecID).
	lastRecTime int64
	lastRecID   int64
	// lastJobEnd/lastJobID is the job-stream cursor; accepting jobs in
	// (EndTime, ID) order is what makes the live occupancy builder
	// reproduce the batch byEnd order (and hence its sort permutation)
	// exactly, and what lets Publish hand occ.Jobs to joblog.NewLog,
	// which then neither copies nor sorts it. The cursor compares
	// time.Time values, as NewLog does, so the two orders agree outside
	// the Unix nanosecond range too. It starts at the Unix epoch.
	lastJobEnd time.Time
	lastJobID  int64

	// sealedJobs counts the jobs that belong to sealed segments: the
	// occ.Jobs from there on become the next seal's job file.
	// unpersisted queues seals whose files have not been durably written
	// yet (a failed write keeps them queued for retry; recovery never
	// sees them).
	sealedJobs  int
	unpersisted []sealRecord
	per         *persister
	// dirty records whether anything was ingested since the last seal's
	// manifest; Seal uses it to decide whether an empty checkpoint
	// segment is needed to commit the residue.
	dirty bool
	// stateSeq advances with every change an epoch shows: each applied
	// ingest batch and each seal. triedState is its value at the last
	// publish attempt's snapshot, successful or not (tried: there was
	// one), so PublishIfChanged can tell an idle interval.
	stateSeq   uint64
	triedState uint64
	tried      bool

	// pubMu serializes publications; epoch is the read side.
	pubMu    sync.Mutex
	epochSeq uint64
	epoch    atomic.Pointer[Epoch]
}

// NewEngine builds an engine and, when cfg.DataDir is set, recovers the
// sealed prefix persisted there.
func NewEngine(cfg Config) (*Engine, error) {
	// A zero cascade config means "the paper's thresholds", exactly as
	// the batch entry points default it — the cascade runs at Feed
	// time, so the defaulting cannot be left to AnalyzeStream.
	if cfg.Analysis.Filter == (filter.Config{}) {
		cfg.Analysis.Filter = filter.DefaultConfig()
	}
	tab := symtab.NewTable()
	e := &Engine{
		cfg:  cfg,
		tab:  tab,
		inc:  filter.NewIncremental(cfg.Analysis.Filter, tab),
		segs: store.SegmentSet{SealRows: cfg.SealRows},

		lastJobEnd: time.Unix(0, 0).UTC(),
	}
	if cfg.MemBudget > 0 && cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: MemBudget requires DataDir (spilled segments need a home)")
	}
	if cfg.DataDir != "" {
		e.per = &persister{dir: cfg.DataDir, hook: cfg.SealHook}
		if err := e.recover(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// OrderError reports a batch that violates stream ordering. The batch
// was NOT applied — ingest is all-or-nothing.
type OrderError struct {
	// Stream is "ras" or "job"; Index is the offending batch position.
	Stream string
	Index  int
	Detail string
}

func (e *OrderError) Error() string {
	return fmt.Sprintf("serve: %s batch record %d out of order: %s (batch rejected; nothing was applied)",
		e.Stream, e.Index, e.Detail)
}

// IngestRAS applies one batch of RAS records, which must be sorted by
// (EventTime, RecID) and start no earlier than the engine's cursor.
// The whole batch is validated before any record is applied; on error
// the engine state is unchanged. Segments sealed by the batch are
// persisted (when DataDir is set) before IngestRAS returns — that is
// the durability boundary.
func (e *Engine) IngestRAS(recs []raslog.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	last, lastID := e.lastRecTime, e.lastRecID
	for i := range recs {
		t := recs[i].EventTime.UnixNano()
		if t < last || (t == last && recs[i].RecID < lastID) {
			return &OrderError{Stream: "ras", Index: i, Detail: fmt.Sprintf(
				"RECID %d at %s behind cursor (%s, RECID %d)",
				recs[i].RecID, recs[i].EventTime.UTC().Format(time.RFC3339Nano),
				time.Unix(0, last).UTC().Format(time.RFC3339Nano), lastID)}
		}
		last, lastID = t, recs[i].RecID
	}

	if len(recs) > 0 {
		e.stateSeq++
	}
	var sealErr error
	for i := range recs {
		rec := &recs[i]
		e.dirty = true
		e.stats.ObserveRAS(rec)
		e.lastRecTime = rec.EventTime.UnixNano()
		e.lastRecID = rec.RecID
		if !rec.Fatal() {
			continue
		}
		if err := e.inc.Feed(rec); err != nil {
			// Unreachable: the batch was validated against the cascade's
			// exact admission rule above.
			return fmt.Errorf("serve: internal: %w", err)
		}
		full := e.segs.Append(rec.RecID, rec.EventTime.UnixNano(), rec.ErrCode, rec.Location,
			int32(rec.Component), int32(rec.Severity))
		if full {
			if err := e.seal(); err != nil && sealErr == nil {
				sealErr = err
			}
		}
	}
	return sealErr
}

// IngestJobs applies one batch of job records, which must be sorted by
// (EndTime, ID) and not regress behind previously accepted jobs. Like
// IngestRAS it is all-or-nothing.
func (e *Engine) IngestJobs(jobs []joblog.Job) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	last, lastID := e.lastJobEnd, e.lastJobID
	for i := range jobs {
		c := jobs[i].EndTime.Compare(last)
		if c < 0 || (c == 0 && jobs[i].ID < lastID) {
			return &OrderError{Stream: "job", Index: i, Detail: fmt.Sprintf(
				"job %d ending %s behind cursor (%s, job %d)",
				jobs[i].ID, jobs[i].EndTime.UTC().Format(time.RFC3339Nano),
				last.UTC().Format(time.RFC3339Nano), lastID)}
		}
		last, lastID = jobs[i].EndTime, jobs[i].ID
	}
	if len(jobs) > 0 {
		e.stateSeq++
	}
	for _, j := range jobs {
		e.dirty = true
		e.occ.Add(j)
		e.lastJobEnd, e.lastJobID = j.EndTime, j.ID
	}
	return nil
}

// seal seals the segment set's tail, queues it together with the
// pending records and jobs that belong to it, then tries to flush the
// unpersisted queue. Called with e.mu held.
func (e *Engine) seal() error {
	seg, err := e.segs.Seal()
	if err != nil {
		return fmt.Errorf("serve: sealing segment: %w", err)
	}
	e.stateSeq++
	jobs := e.occ.Jobs()
	sr := sealRecord{
		seg:  seg,
		jobs: jobs[e.sealedJobs:],
		man: manifest{
			Format:        manifestFormat,
			Seq:           seg.Seq(),
			Rows:          seg.Rows(),
			JobCount:      len(jobs) - e.sealedJobs,
			RASRecords:    e.stats.RASRecords,
			RASBytes:      e.stats.RASBytes,
			FatalRecords:  e.stats.FatalRecords,
			RASFirstNS:    timeNS(e.stats.First),
			RASLastNS:     timeNS(e.stats.Last),
			LastRecTimeNS: e.lastRecTime,
			LastRecID:     e.lastRecID,
		},
	}
	e.sealedJobs = len(jobs)
	e.dirty = false
	if e.per == nil {
		return nil
	}
	if e.stats.HasFatal {
		sr.man.FirstFatal = e.stats.FirstFatal.AppendLine(nil)
	}
	e.unpersisted = append(e.unpersisted, sr)
	if err := e.flushSeals(); err != nil {
		return err
	}
	return e.maybeSpill()
}

// maybeSpill enforces the memory budget by swapping the oldest resident
// sealed segments for their committed files in DataDir; their zone maps
// stay resident, so scans keep skipping them for free. SpillOver writes
// nothing, so this must run only when the unpersisted queue is empty
// (seal calls it after flushSeals succeeds): then every sealed segment
// has its seg-N.seg. Called with e.mu held.
func (e *Engine) maybeSpill() error {
	if e.cfg.MemBudget <= 0 {
		return nil
	}
	_, err := e.segs.SpillOver(e.cfg.MemBudget, e.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("serve: spilling segments: %w", err)
	}
	return nil
}

// ScanWindow runs a window profile directly against the segment set
// with zone-map pushdown: segments outside the window (or without a
// matching severity/code/location) are skipped from their zone maps
// alone, the unsealed tail included. It reads the live set under the
// ingest lock, so the profile is consistent with a single ingest
// boundary.
func (e *Engine) ScanWindow(cfg core.WindowConfig) (core.WindowProfile, store.ScanStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var prof core.WindowProfiler
	stats, err := e.segs.Scan(cfg.Query(), func(row store.Row) error {
		prof.Observe(row)
		return nil
	})
	if err != nil {
		return core.WindowProfile{}, stats, fmt.Errorf("serve: window scan: %w", err)
	}
	return prof.Profile(), stats, nil
}

// flushSeals writes queued seals in order, stopping at the first
// failure (the remainder stays queued for the next attempt). Called
// with e.mu held.
func (e *Engine) flushSeals() error {
	for len(e.unpersisted) > 0 {
		if err := e.per.writeSeal(e.unpersisted[0]); err != nil {
			return fmt.Errorf("serve: persisting segment %d: %w", e.unpersisted[0].man.Seq, err)
		}
		e.unpersisted = e.unpersisted[1:]
	}
	return nil
}

// Seal force-seals the active segment (even under budget) and flushes
// every unpersisted seal. A clean shutdown calls it so the whole
// ingested history becomes the recoverable prefix. When records were
// ingested since the last seal but none produced a filtered row (a
// noise-only or jobs-only stretch), an empty checkpoint segment is
// sealed instead: its manifest is what commits the cumulative
// counters, cursors and pending jobs.
func (e *Engine) Seal() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Every row in the tail arrived with an ingest that set dirty.
	if e.dirty {
		return e.seal()
	}
	return e.flushSeals()
}

// Epoch returns the most recently published epoch, or nil before the
// first successful Publish.
func (e *Engine) Epoch() *Epoch { return e.epoch.Load() }

// Publish snapshots the live state and builds a new epoch from it. The
// snapshot itself is cheap and runs under the ingest lock; the
// analysis (matching, identification, classification, fits) runs
// outside it against immutable data, so ingest continues concurrently.
// Publications are serialized; each gets the next epoch sequence.
func (e *Engine) Publish() (*Epoch, error) {
	e.pubMu.Lock()
	defer e.pubMu.Unlock()

	e.mu.Lock()
	events, fstats := e.inc.Snapshot()
	tab := e.tab.Clone()
	occ := e.occ.Snapshot()
	jobs := e.occ.Jobs()
	stats := e.stats
	var counts segmentCounts
	counts.segments, counts.sealed, counts.rows = e.segs.Counts()
	watermark := e.inc.Watermark()
	seq := e.epochSeq + 1
	state := e.stateSeq
	e.mu.Unlock()

	// The jobs are in (EndTime, ID) order (IngestJobs' cursor), so the
	// log keeps this clipped view as it is: no copy, no sort. It is the
	// slice occ indexes, so match's positions agree by construction.
	jl := joblog.NewLog(jobs)
	jFirst, jLast := jl.Span()
	start, end := core.UnionSpan(stats.First, stats.Last, jFirst, jLast)
	a, err := core.AnalyzeStream(e.cfg.Analysis, core.StreamInput{
		Tab:         tab,
		Events:      events,
		FilterStats: fstats,
		Jobs:        jl,
		Occupancy:   occ,
		SpanStart:   start,
		SpanEnd:     end,
	})
	var ep *Epoch
	if err == nil {
		ep = newEpoch(seq, watermark, a, repro.NewStreamReport(a, jl, stats), counts, stats)
	}

	e.mu.Lock()
	e.triedState, e.tried = state, true
	if ep != nil {
		e.epochSeq = seq
		e.epoch.Store(ep)
	}
	e.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("serve: epoch %d: %w", seq, err)
	}
	return ep, nil
}

// PublishIfChanged is Publish for a periodic publisher: when nothing
// was ingested or sealed since the last publish attempt's snapshot, it
// returns the current epoch (nil if none was ever published) without
// rebuilding it. A failed attempt is not retried until the state
// changes: the same state would fail the same way, and the attempt
// already reported the error.
func (e *Engine) PublishIfChanged() (*Epoch, error) {
	e.mu.Lock()
	idle := e.tried && e.triedState == e.stateSeq
	e.mu.Unlock()
	if idle {
		return e.epoch.Load(), nil
	}
	return e.Publish()
}

// Quiesce seals and persists everything ingested so far, then
// publishes. After Quiesce returns, the current epoch reflects every
// acknowledged record and the whole history is recoverable.
func (e *Engine) Quiesce() (*Epoch, error) {
	if err := e.Seal(); err != nil {
		return nil, err
	}
	return e.Publish()
}

// timeNS converts a time to Unix nanoseconds, mapping the zero time to
// 0 so manifests round-trip it (campaign timestamps are nowhere near
// 1970, so the conflation is harmless).
func timeNS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// nsTime is the inverse of timeNS.
func nsTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}
