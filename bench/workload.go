package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faultgen"
	"repro/internal/raslog"
	"repro/internal/simulate"
)

type kind int

const (
	kindBatch    kind = iota // coanalyze -ras -job
	kindMembound             // coanalyze -mem-budget
	kindDaemon               // bgpd fed over HTTP
)

// A workload is one input set and the way it drives a program under
// test. The reasons are repeated in BENCHMARK.json and bench/README.md.
type workload struct {
	name  string
	kind  kind
	days  int     // campaign length
	noise float64 // non-fatal records per fatal record
}

// workloads are the benchmark's contract; later changes cite them by
// name.
var workloads = []workload{
	// The paper's record volume (62 non-fatal records per FATAL one):
	// log decode and Table I's raw-log aggregates carry most of the work.
	{name: "paper-batch", kind: kindBatch, days: 30, noise: 62},
	// The same FATAL stream and jobs with almost no noise: analysis and
	// rendering carry the work, so a decode gain should not move it.
	{name: "noise-light", kind: kindBatch, days: 30, noise: 0.5},
	// paper-batch's logs through the spill-to-disk path: spool,
	// segments, zone-map merge and the streaming cascade.
	{name: "membound", kind: kindMembound, days: 30, noise: 62},
	// paper-batch's logs POSTed to a live bgpd while it serves queries.
	{name: "daemon-live", kind: kindDaemon, days: 30, noise: 62},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q; want one of %v", name, names)
}

// campaignSeed fixes the fault and job streams of every input set. The
// size of a campaign's fault stream swings four-fold between campaign
// seeds (57k to 247k records for 30 days at seed 1 to 10), and the
// analysis cost with it, which no regression bound could absorb. The
// benchmark's -seed draws the non-fatal stream instead: different log
// bytes of a fixed size on every seed.
const campaignSeed = 1

// inputs are the logs a run generated.
type inputs struct {
	rasPath, jobPath string
	rasRecords       int
	rasBytes         int64
	jobs             int
}

// generate writes the workload's two logs into dir: the fault and job
// streams of the campaignSeed campaign, plus noise drawn from seed.
func generate(w workload, days int, seed int64, dir string) (inputs, error) {
	camp, err := simulate.Run(simulate.Config{Seed: campaignSeed, Days: days, NoisePerFatal: 0})
	if err != nil {
		return inputs{}, err
	}
	ecfg := faultgen.DefaultEmitterConfig()
	ecfg.NoisePerFatal = w.noise
	em := faultgen.NewEmitter(ecfg, seed)
	fatal := camp.RAS.All()
	em.EmitNoise(camp.Result.Start, camp.Result.End, len(fatal))
	recs := append(append(make([]raslog.Record, 0, len(fatal)+len(em.Records())), fatal...), em.Records()...)
	camp.RAS = raslog.NewStore(faultgen.Renumber(recs))

	in := inputs{
		rasPath:    filepath.Join(dir, "ras.log"),
		jobPath:    filepath.Join(dir, "job.log"),
		rasRecords: camp.RAS.Len(),
		jobs:       camp.Jobs.Len(),
	}
	rf, err := os.Create(in.rasPath)
	if err != nil {
		return in, err
	}
	defer rf.Close()
	jf, err := os.Create(in.jobPath)
	if err != nil {
		return in, err
	}
	defer jf.Close()
	if err := camp.WriteLogs(rf, jf); err != nil {
		return in, err
	}
	if err := rf.Close(); err != nil {
		return in, err
	}
	if err := jf.Close(); err != nil {
		return in, err
	}
	fi, err := os.Stat(in.rasPath)
	if err != nil {
		return in, err
	}
	in.rasBytes = fi.Size()
	return in, nil
}
