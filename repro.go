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
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/sched"
	"repro/internal/simulate"
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
	// Parallelism bounds the worker count of every fan-out — the log
	// decoders, the per-midplane and per-cause fits, and ensemble
	// campaigns (0 = GOMAXPROCS, 1 = sequential). The filter cascade is
	// one ordered pass and does not fan out. For a fixed seed the
	// report is byte-identical at every setting; see internal/parallel
	// for the determinism contract.
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
	// ras is nil for streaming reports (NewStreamReport); the renderers
	// needing raw-log aggregates read logStats() instead, and the one
	// needing the full store (RenderSensitivity) errors without it.
	ras  *raslog.Store
	jobs *joblog.Log
	// truth is non-nil only for simulated campaigns; external logs have
	// no oracle.
	truth *sched.GroundTruth
	days  int

	// rasStats is injected by NewStreamReport (statsSet true) or derived
	// lazily from ras under statsOnce.
	statsOnce sync.Once
	statsSet  bool
	rasStats  LogStats
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
	rep, err := analyzeStores(cfg, camp.RAS, camp.Jobs)
	if err != nil {
		return nil, err
	}
	rep.truth = &camp.Result.Truth
	return rep, nil
}

// Load analyzes externally supplied logs in this module's line formats
// (see internal/raslog and internal/joblog for the schema; cmd/bgpgen
// writes compatible files). Both logs are decoded by the sharded
// streaming codec honoring cfg.Parallelism; the resulting analysis is
// byte-identical at every worker count.
func Load(cfg Config, rasLog, jobLog io.Reader) (*Report, error) {
	recs, err := raslog.ReadAllParallel(rasLog, cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("repro: reading RAS log: %w", err)
	}
	jobs, err := joblog.ReadAllParallel(jobLog, cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("repro: reading job log: %w", err)
	}
	return analyzeStores(cfg, raslog.NewStore(recs), joblog.NewLog(jobs))
}

func simConfig(cfg Config) simulate.Config {
	return simulate.Config{
		Seed:          cfg.Seed,
		Days:          cfg.Days,
		NoisePerFatal: cfg.NoisePerFatal,
		Policy:        cfg.Policy,
	}
}

func analyzeStores(cfg Config, ras *raslog.Store, jobs *joblog.Log) (*Report, error) {
	acfg := core.DefaultConfig()
	if cfg.MatchTolerance > 0 {
		acfg.MatchTolerance = cfg.MatchTolerance
	}
	acfg.Parallelism = cfg.Parallelism
	a, err := core.Analyze(acfg, ras, jobs)
	if err != nil {
		return nil, err
	}
	start, end := a.Span()
	return &Report{
		analysis: a,
		ras:      ras,
		jobs:     jobs,
		days:     int(end.Sub(start).Hours()/24) + 1,
	}, nil
}

// Analysis exposes the underlying co-analysis for advanced callers
// inside this module.
func (r *Report) Analysis() *core.Analysis { return r.analysis }

// RAS returns the RAS store under analysis.
func (r *Report) RAS() *raslog.Store { return r.ras }

// Jobs returns the job log under analysis.
func (r *Report) Jobs() *joblog.Log { return r.jobs }

// HasOracle reports whether generator ground truth is available (only
// for simulated campaigns).
func (r *Report) HasOracle() bool { return r.truth != nil }

// Oracle returns the ground truth of a simulated campaign, or nil.
func (r *Report) Oracle() *sched.GroundTruth { return r.truth }
