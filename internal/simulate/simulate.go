// Package simulate wires the substrates into one campaign: the
// workload generator feeds the Cobalt-like scheduler under the fault
// model, producing the RAS stream and job log the co-analysis consumes,
// plus the generator-side ground truth for oracle tests.
package simulate

import (
	"fmt"
	"io"

	"repro/internal/errcat"
	"repro/internal/faultgen"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Config selects the campaign scale and seeds. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Seed drives every random draw in the campaign.
	Seed int64
	// Days is the campaign length (the paper's full campaign is 237).
	Days int
	// NoisePerFatal scales the non-fatal background volume; the Intrepid
	// ratio is ~62 non-fatal records per fatal record. Lower it for
	// fast tests.
	NoisePerFatal float64
	// Policy names the scheduling policy to simulate under (see
	// sched.PolicyNames); empty means the paper's Intrepid default. It
	// is applied on top of any Sched override.
	Policy string
	// Workload, Sched and Model allow overriding individual knobs; when
	// nil/zero they default to the Intrepid-like settings.
	Workload *workload.Spec
	Sched    *sched.Config
	Model    *faultgen.Model
}

// DefaultConfig returns the full-scale Intrepid-like campaign.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Days: 237, NoisePerFatal: 62}
}

// Campaign bundles the simulated logs, ready-to-analyze stores, the
// catalog and the oracle.
type Campaign struct {
	// Catalog is the ERRCODE catalog the campaign used.
	Catalog *errcat.Catalog
	// RAS is the full RAS stream. It is a store over Result.Records,
	// not a copy: both views share one slice, and neither may be
	// modified.
	RAS *raslog.Store
	// Jobs is the job log. Like RAS it is a log over Result.Jobs, not a
	// copy: both views share one slice, which NewLog puts in (EndTime,
	// ID) order, and neither may be modified.
	Jobs *joblog.Log
	// Result carries the raw scheduler output including ground truth.
	Result *sched.Result
}

// Run simulates one campaign.
func Run(cfg Config) (*Campaign, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("simulate: non-positive days %d", cfg.Days)
	}
	cat := errcat.Intrepid()

	wspec := workload.DefaultSpec(cfg.Seed, 1)
	if cfg.Workload != nil {
		wspec = *cfg.Workload
	}
	wspec.Days = cfg.Days
	gen, err := workload.New(wspec, cat.ByClass(errcat.ClassApplication))
	if err != nil {
		return nil, fmt.Errorf("simulate: workload: %w", err)
	}

	scfg := sched.DefaultConfig(cfg.Seed)
	if cfg.Sched != nil {
		scfg = *cfg.Sched
	}
	if cfg.Policy != "" {
		scfg.Policy = cfg.Policy
	}
	model := faultgen.DefaultModel(cat)
	if cfg.Model != nil {
		model = cfg.Model
	}
	emitCfg := faultgen.DefaultEmitterConfig()
	if cfg.NoisePerFatal >= 0 {
		emitCfg.NoisePerFatal = cfg.NoisePerFatal
	}

	res, err := sched.Run(scfg, gen, model, emitCfg)
	if err != nil {
		return nil, fmt.Errorf("simulate: sched: %w", err)
	}
	return &Campaign{
		Catalog: cat,
		RAS:     raslog.NewStore(res.Records),
		Jobs:    joblog.NewLog(res.Jobs),
		Result:  res,
	}, nil
}

// WriteLogs streams the campaign's two logs to the given writers in the
// module's line formats (the files cmd/coanalyze and repro.Load read
// back). Either writer may be nil to skip that log.
func (c *Campaign) WriteLogs(rasW, jobW io.Writer) error {
	if rasW != nil {
		w := raslog.NewWriter(rasW)
		for _, rec := range c.RAS.All() {
			if err := w.Write(rec); err != nil {
				return fmt.Errorf("simulate: writing RAS log: %w", err)
			}
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("simulate: writing RAS log: %w", err)
		}
	}
	if jobW != nil {
		w := joblog.NewWriter(jobW)
		for _, j := range c.Jobs.All() {
			if err := w.Write(j); err != nil {
				return fmt.Errorf("simulate: writing job log: %w", err)
			}
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("simulate: writing job log: %w", err)
		}
	}
	return nil
}
