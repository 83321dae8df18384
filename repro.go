// Package repro reproduces "Co-analysis of RAS Log and Job Log on Blue
// Gene/P" (Zheng et al., IPDPS 2011) end to end: it simulates an
// Intrepid-like Blue Gene/P campaign (machine, Cobalt-like scheduler,
// fault injection, RAS/job log emission), runs the paper's co-analysis
// methodology over the two logs, and regenerates every table and figure
// of the evaluation.
//
// Typical use:
//
//	rep, err := repro.Run(repro.DefaultConfig(1))
//	...
//	rep.RenderAll(os.Stdout)
//
// The same analysis can be applied to external logs in this module's
// log formats via Load.
package repro

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/parallel"
	"repro/internal/raslog"
	"repro/internal/sched"
	"repro/internal/simulate"
	"repro/internal/store"
)

// Config selects the campaign and analysis parameters.
type Config struct {
	// Seed drives every random draw; equal seeds give identical
	// campaigns and analyses.
	Seed int64
	// Days is the campaign length; the paper's study covers 237 days.
	Days int
	// NoisePerFatal is the non-fatal record volume per fatal record in
	// the raw RAS stream (Intrepid: ~62). Lower it for faster runs.
	NoisePerFatal float64
	// MatchTolerance is the job-end-to-event matching slack; zero means
	// the default (5 minutes).
	MatchTolerance time.Duration
	// Parallelism bounds the worker count of each fan-out — the
	// chunked decode of each log in Load, the artifacts RenderAll
	// renders side by side, and the campaigns of RunEnsemble and
	// RunMatrix (0 = GOMAXPROCS, 1 = sequential, no goroutine). It
	// bounds each one, not their sum: with more than one worker Load
	// decodes the job log beside the RAS log, each decode on up to
	// Parallelism workers. The analysis itself is one sequential pass.
	// For a fixed input the report is byte-identical at every setting;
	// see internal/parallel for the determinism contract.
	Parallelism int
	// Seeds is the number of campaigns RunEnsemble simulates, at seeds
	// Seed, Seed+1, ..., Seed+Seeds-1 (0 or 1 means a single campaign).
	Seeds int
	// Policy names the scheduling policy the campaign simulates under
	// (see sched.PolicyNames); empty means the paper's Intrepid default,
	// whose output is pinned byte-identical by the goldens.
	Policy string
}

// DefaultConfig returns the full-scale, paper-equivalent configuration.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Days: 237, NoisePerFatal: 62}
}

// QuickConfig returns a reduced campaign (about a quarter of the paper's
// days, light noise) that runs in a couple of seconds; the shapes of
// all results are preserved.
func QuickConfig(seed int64) Config {
	return Config{Seed: seed, Days: 60, NoisePerFatal: 3}
}

// Report is a completed reproduction: the simulated campaign (when one
// was run), the analysis, and renderers for every artifact of the
// paper's evaluation.
type Report struct {
	analysis *core.Analysis
	jobs     *joblog.Log
	// run is the sorted FATAL run the analysis merged, resident or
	// spilled; RenderSensitivity replays it at the other windows. spool
	// and merge are what sorting it and the analysis's merge of it did.
	// run is nil only for streaming reports (NewStreamReport), which
	// retain no records.
	run   *store.Catalog
	spool store.SpoolStats
	merge store.ScanStats
	// stats are the raw-log aggregates (Table I's sizes, Table II's
	// example record, the Summary counters), set by every constructor.
	stats LogStats
	// truth is a copy of a simulated campaign's ground truth (simulated
	// is set); loaded and streaming reports have no oracle. No report
	// keeps a RAS record beyond the FATAL run.
	truth     sched.GroundTruth
	simulated bool
	days      int
	// workers bounds RenderAll's fan-out, a Parallelism knob: the
	// Config's for Run and Load, 0 (GOMAXPROCS) for streaming reports.
	workers int
}

// Run simulates a campaign and analyzes it.
func Run(cfg Config) (*Report, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("repro: non-positive Days %d", cfg.Days)
	}
	camp, err := simulate.Run(simConfig(cfg))
	if err != nil {
		return nil, err
	}
	return analyzeCampaign(cfg, camp)
}

// analyzeCampaign analyzes a simulated campaign, keeping a copy of its
// ground truth and nothing that reaches the campaign's records: like a
// loaded report, it retains only the sorted FATAL run.
func analyzeCampaign(cfg Config, camp *simulate.Campaign) (*Report, error) {
	var stats LogStats
	sp := store.NewSpool("", 0)
	all := camp.RAS.All()
	for i := range all {
		stats.ObserveRAS(&all[i])
		if all[i].Fatal() {
			if err := spoolFatal(sp, &all[i], 0); err != nil {
				return nil, err
			}
		}
	}
	rep, err := analyzeRun(cfg, sp, stats, camp.Jobs)
	if err != nil {
		return nil, err
	}
	rep.truth, rep.simulated = camp.Result.Truth, true
	return rep, nil
}

// Load analyzes externally supplied logs in this module's line formats
// (see internal/raslog and internal/joblog for the schema; cmd/bgpgen
// writes compatible files). It is LoadBounded without a budget: the
// sorted FATAL run stays in memory.
func Load(cfg Config, rasLog, jobLog io.Reader) (*Report, error) {
	return LoadBounded(cfg, 0, "", rasLog, jobLog)
}

// LoadBounded analyzes externally supplied logs holding at most about
// budget bytes of FATAL event payload, in encoded line bytes, in memory
// (coanalyze -mem-budget): past the budget the RAS log's sorted FATAL
// run spills to segment files under spillDir; with budget <= 0 it stays
// resident and spillDir is not touched. Both logs are decoded by the
// sharded streaming codecs, each on up to cfg.Parallelism workers; with
// more than one worker the job log decodes on its own goroutine while
// the RAS log does, so the two decodes together may run twice that
// many. LoadBounded waits for the job decode on every path; a RAS error
// stops it at its next read and takes precedence over a job-log error.
// The RAS decode validates every line, folds the noise into Table I's
// aggregates and spools only the FATAL records the analysis reads
// (raslog.ScanFatal). The report is byte-identical at every worker
// count and every budget. It retains the run until Close.
func LoadBounded(cfg Config, budget int64, spillDir string, rasLog, jobLog io.Reader) (*Report, error) {
	if parallel.Workers(cfg.Parallelism) <= 1 {
		sp := store.NewSpool(spillDir, budget)
		stats, err := scanRAS(rasLog, cfg.Parallelism, budget, sp)
		if err != nil {
			return nil, fmt.Errorf("repro: reading RAS log: %w", err)
		}
		return analyzeLoaded(cfg, sp, stats, readJobs(jobLog, cfg.Parallelism))
	}
	return loadOverlapped(cfg, budget, spillDir, rasLog, jobLog)
}

// loadOverlapped is LoadBounded with the job log decoding on its own
// goroutine beside the RAS log's decode.
func loadOverlapped(cfg Config, budget int64, spillDir string, rasLog, jobLog io.Reader) (*Report, error) {
	jr := &abortReader{r: jobLog}
	pending := make(chan loadedJobs, 1)
	go func() { pending <- readJobs(jr, cfg.Parallelism) }()
	sp := store.NewSpool(spillDir, budget)
	stats, err := scanRAS(rasLog, cfg.Parallelism, budget, sp)
	if err != nil {
		jr.abort.Store(true)
	}
	jobs := <-pending
	if err != nil {
		return nil, fmt.Errorf("repro: reading RAS log: %w", err)
	}
	return analyzeLoaded(cfg, sp, stats, jobs)
}

// analyzeLoaded is analyzeRun over a decoded job log, or the job log's
// error.
func analyzeLoaded(cfg Config, sp *store.Spool, stats LogStats, jobs loadedJobs) (*Report, error) {
	if jobs.err != nil {
		return nil, fmt.Errorf("repro: reading job log: %w", jobs.err)
	}
	return analyzeRun(cfg, sp, stats, jobs.log)
}

// errLoadAborted ends a job-log decode whose RAS log failed; the RAS
// error is the one LoadBounded reports.
var errLoadAborted = errors.New("repro: load aborted")

// abortReader reads r until abort is set, and then fails every Read.
type abortReader struct {
	r     io.Reader
	abort atomic.Bool
}

func (a *abortReader) Read(p []byte) (int, error) {
	if a.abort.Load() {
		return 0, errLoadAborted
	}
	return a.r.Read(p)
}

// scanRAS decodes a RAS log into Table I's aggregates and Table II's
// example, spooling its FATAL records into sp, each weighted by its
// encoded line when budget > 0.
func scanRAS(rasLog io.Reader, parallelism int, budget int64, sp *store.Spool) (LogStats, error) {
	var stats LogStats
	tot, err := raslog.ScanFatal(rasLog, parallelism, func(rec *raslog.Record) error {
		// Table II's example. Strictly before: on a full tie the first
		// one seen stays, as a stable sort orders them.
		if !stats.HasFatal || raslog.Before(rec, &stats.FirstFatal) {
			stats.FirstFatal, stats.HasFatal = *rec, true
		}
		var weight int64 // only a budget reads it
		if budget > 0 {
			weight = int64(rec.MarshaledLen() + 1)
		}
		return spoolFatal(sp, rec, weight)
	})
	stats.RASRecords, stats.RASBytes, stats.FatalRecords = tot.Records, tot.Bytes, tot.Fatal
	stats.First, stats.Last = tot.First, tot.Last
	return stats, err
}

// loadedJobs is a decoded job log, or the error that stopped it.
type loadedJobs struct {
	log *joblog.Log
	err error
}

// readJobs decodes a job log into a Log whose MarshaledBytes (Table I's
// job-log size) the decode summed.
func readJobs(jobLog io.Reader, parallelism int) loadedJobs {
	log, err := joblog.ReadLog(jobLog, parallelism)
	return loadedJobs{log: log, err: err}
}

func simConfig(cfg Config) simulate.Config {
	return simulate.Config{
		Seed:          cfg.Seed,
		Days:          cfg.Days,
		NoisePerFatal: cfg.NoisePerFatal,
		Policy:        cfg.Policy,
	}
}

// spoolFatal adds one FATAL record to sp with its weight toward sp's
// budget.
func spoolFatal(sp *store.Spool, rec *raslog.Record, weight int64) error {
	return sp.Add(rec.RecID, rec.EventTime.UnixNano(), rec.ErrCode, rec.Location,
		int32(rec.Component), int32(rec.Severity), true, weight)
}

// analyzeRun finishes sp, whose rows are a RAS log's FATAL records, and
// runs the co-analysis over its sorted run (core.AnalyzeRun) with the
// log's aggregates.
func analyzeRun(cfg Config, sp *store.Spool, stats LogStats, jobs *joblog.Log) (*Report, error) {
	run, ss, err := sp.Finish()
	if err != nil {
		return nil, err
	}
	acfg := core.DefaultConfig()
	if cfg.MatchTolerance > 0 {
		acfg.MatchTolerance = cfg.MatchTolerance
	}
	a, ms, err := core.AnalyzeRun(acfg, run, stats.First, stats.Last, jobs)
	if err != nil {
		run.Close()
		return nil, err
	}
	rep := NewStreamReport(a, jobs, stats)
	rep.run, rep.spool, rep.merge = run, ss, ms
	rep.workers = cfg.Parallelism
	return rep, nil
}

// Analysis exposes the underlying co-analysis for advanced callers
// inside this module.
func (r *Report) Analysis() *core.Analysis { return r.analysis }

// RunStats returns what the spool that sorted the FATAL run did and
// what the analysis's merge of the run consulted, skipped and yielded.
func (r *Report) RunStats() (store.SpoolStats, store.ScanStats) { return r.spool, r.merge }

// Close releases the retained FATAL run: the spilled segment files
// when there are any. The report renders everything but the sweep
// afterwards.
func (r *Report) Close() error {
	if r.run == nil {
		return nil
	}
	err := r.run.Close()
	r.run = nil
	return err
}

// Jobs returns the job log under analysis.
func (r *Report) Jobs() *joblog.Log { return r.jobs }

// HasOracle reports whether generator ground truth is available (only
// for simulated campaigns). No binary reads the oracle yet: it and
// Oracle stay for the planned scorer that grades matching and
// identification against the generator's truth.
func (r *Report) HasOracle() bool { return r.simulated }

// Oracle returns the ground truth of a simulated campaign, or nil; it
// stays for the same scorer as HasOracle.
func (r *Report) Oracle() *sched.GroundTruth {
	if !r.simulated {
		return nil
	}
	return &r.truth
}
