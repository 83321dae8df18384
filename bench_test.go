package repro

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/errcat"
	"repro/internal/faultgen"
	"repro/internal/filter"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/sched"
	"repro/internal/simulate"
	"repro/internal/store"
	"repro/internal/symtab"
	"repro/internal/workload"
)

// The benchmark fixture simulates one campaign and analyzes it once;
// every per-artifact benchmark then measures the cost of regenerating
// its table or figure from the analysis. Set REPRO_BENCH_DAYS to stretch
// the campaign (e.g. REPRO_BENCH_DAYS=237 for the paper-scale run).
var (
	benchOnce sync.Once
	benchCamp *simulate.Campaign
	benchRep  *Report
	benchErr  error
)

func benchReport(b *testing.B) *Report {
	_, rep := benchCampaign(b)
	return rep
}

// benchCampaign returns the fixture's campaign and its report, as Run
// builds them; a benchmark that reads the campaign's records takes
// them from here, since the report keeps none.
func benchCampaign(b *testing.B) (*simulate.Campaign, *Report) {
	b.Helper()
	benchOnce.Do(func() {
		days := 60
		if v := os.Getenv("REPRO_BENCH_DAYS"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				days = n
			}
		}
		cfg := QuickConfig(1)
		cfg.Days = days
		benchCamp, benchErr = simulate.Run(simConfig(cfg))
		if benchErr == nil {
			benchRep, benchErr = analyzeCampaign(cfg, benchCamp)
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCamp, benchRep
}

// BenchmarkCampaign measures the full simulate-and-analyze pipeline
// end to end (Table I's inputs).
func BenchmarkCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := QuickConfig(int64(i + 1))
		cfg.Days = 14
		rep, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Jobs().Len() == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkTableI_LogSummary regenerates Table I.
func BenchmarkTableI_LogSummary(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.RenderTableI(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_RASRoundTrip measures the RAS record round trip
// behind Table II.
func BenchmarkTableII_RASRoundTrip(b *testing.B) {
	camp, _ := benchCampaign(b)
	recs := camp.RAS.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		if _, err := raslog.UnmarshalLine(r.MarshalLine()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII_JobRoundTrip measures the job record round trip
// behind Table III.
func BenchmarkTableIII_JobRoundTrip(b *testing.B) {
	rep := benchReport(b)
	jobs := rep.Jobs().All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		var got joblog.Job
		if err := got.UnmarshalFields([]byte(j.MarshalLine())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1_Pipeline measures the temporal-spatial-causality
// filtering cascade over the campaign's FATAL records.
func BenchmarkFigure1_Pipeline(b *testing.B) {
	camp, _ := benchCampaign(b)
	fatal := camp.RAS.Fatal()
	cfg := filter.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evs, _ := filter.Pipeline(cfg, symtab.NewTable(), fatal)
		if len(evs) == 0 {
			b.Fatal("pipeline produced no events")
		}
	}
}

// streamCorpus builds a synthetic raw RAS log in memory: FATAL events
// drowned in non-fatal noise, the mix the streaming ingestion sees.
// Synthetic (not the campaign fixture) so the codec benchmarks measure
// decode + cascade, not simulation startup. Every eighth record is
// FATAL with one of 32 ERRCODEs drawn at random, so the cascade keeps
// many events (4,096 FATAL records → 74 at 32,768 records, a 98.2%
// compression like the paper's) and the analysis has work to do.
func streamCorpus(records int) []byte {
	rng := rand.New(rand.NewSource(23))
	codes := []string{"_bgp_warn_link", "_bgp_info_boot"}
	var buf []byte
	base := time.Date(2008, 4, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < records; i++ {
		sev, comp, code := raslog.SevInfo, raslog.CompMMCS, codes[i%len(codes)]
		if i%8 == 0 {
			sev, comp = raslog.SevFatal, raslog.CompKernel
			code = "_bgp_err_bench_" + strconv.Itoa(rng.Intn(32))
		}
		rec := raslog.Record{
			RecID:     int64(i + 1),
			MsgID:     "KERN_0802",
			Component: comp,
			ErrCode:   code,
			Severity:  sev,
			EventTime: base.Add(time.Duration(i) * 400 * time.Millisecond),
			Flags:     "DefaultControlEventListener",
			Location:  "R" + strconv.Itoa(rng.Intn(40)) + "-M" + strconv.Itoa(i%2),
			Serial:    "SN",
			Message:   "benchmark record",
		}
		buf = rec.AppendLine(buf)
		buf = append(buf, '\n')
	}
	return buf
}

// streamJobs is a job log over streamCorpus's span (44 jobs for 32,768
// records): one-midplane jobs spread over all 80 midplanes, one
// starting every 5 minutes and each running 20, so the analysis has
// interruptions to match.
func streamJobs(records int) []byte {
	base := time.Date(2008, 4, 1, 0, 0, 0, 0, time.UTC)
	span := time.Duration(records) * 400 * time.Millisecond
	var buf []byte
	for i := 0; time.Duration(i)*5*time.Minute < span; i++ {
		start := base.Add(time.Duration(i) * 5 * time.Minute)
		j := joblog.Job{
			ID:        int64(i + 1),
			Name:      "bench",
			ExecFile:  "/bench/exec" + strconv.Itoa(i%16),
			QueueTime: start.Add(-time.Minute),
			StartTime: start,
			EndTime:   start.Add(20 * time.Minute),
			Partition: bgp.Partition{Start: i % 80, Size: 1},
			User:      "u",
			Project:   "p",
		}
		buf = j.AppendLine(buf)
		buf = append(buf, '\n')
	}
	return buf
}

// BenchmarkStreamPipeline measures what coanalyze runs on a raw RAS log
// without a budget, repro.LoadBounded: the sharded ScanFatal decode
// validating every line and spooling the FATAL ones, the spool's
// sorted run, and core.AnalyzeRun's merge, cascade and co-analysis
// against streamJobs' small job log, whose decode is a small share.
func BenchmarkStreamPipeline(b *testing.B) {
	const records = 32768
	corpus := streamCorpus(records)
	jobs := streamJobs(records)
	b.SetBytes(int64(len(corpus)))
	b.ReportAllocs()
	// Collect garbage only between ops, off the clock: a collection
	// inside an op makes its allocation count depend on when the
	// collector ran, and the bgpbench gate needs a count that repeats.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		rep, err := LoadBounded(Config{}, 0, "", bytes.NewReader(corpus), bytes.NewReader(jobs))
		if err != nil {
			b.Fatal(err)
		}
		if a := rep.Analysis(); len(a.Events) < 2 || len(a.Interruptions) == 0 {
			b.Fatalf("stream pipeline kept %d events and %d interruptions; the corpus must give it several events and an interruption",
				len(a.Events), len(a.Interruptions))
		}
	}
}

// BenchmarkObs1_Identification regenerates the three-case census.
func BenchmarkObs1_Identification(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := rep.Analysis().Census()
		if c.TypesInterruptionRelated == 0 {
			b.Fatal("no interruption-related types")
		}
	}
}

// BenchmarkObs2_Classification regenerates the class census.
func BenchmarkObs2_Classification(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc := rep.Analysis().ClassificationCensus()
		if cc.SystemTypes == 0 {
			b.Fatal("no system types")
		}
	}
}

// BenchmarkCoanalysisGrouping measures the grouping-heavy co-analysis
// stages re-keyed on typed symbol IDs: per-executable interruption
// grouping (bitset over ExecID), per-job cause attribution (dense
// JobID-indexed state) and the per-code propagation set.
func BenchmarkCoanalysisGrouping(b *testing.B) {
	rep := benchReport(b)
	a := rep.Analysis()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.DistinctInterruptedJobs() == 0 {
			b.Fatal("no interrupted jobs")
		}
		if rs := a.Resubmissions(3); rs.MaxK == 0 {
			b.Fatal("no resubmission stats")
		}
		if ps := a.Propagation(); ps.InterruptingEvents == 0 {
			b.Fatal("no interrupting events")
		}
	}
}

// BenchmarkObs3_JobFilter regenerates the job-related filtering
// statistics.
func BenchmarkObs3_JobFilter(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := rep.Analysis().JobFilter()
		if st.Input == 0 {
			b.Fatal("no events")
		}
	}
}

// BenchmarkTableIV_WeibullFits regenerates Table IV (the MLE fits and
// LRT before/after job-related filtering; also Figure 3's curves).
func BenchmarkTableIV_WeibullFits(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc, err := rep.Analysis().FailureCharacteristics()
		if err != nil {
			b.Fatal(err)
		}
		if fc.Before.Weibull.Shape <= 0 {
			b.Fatal("bad fit")
		}
	}
}

// BenchmarkFigure4_Midplanes regenerates the three per-midplane series.
func BenchmarkFigure4_Midplanes(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc := rep.Analysis().MidplaneCharacteristics(32)
		if mc.TopMidplanes[0] < 0 {
			b.Fatal("bad top midplane")
		}
	}
}

// BenchmarkFigure5_Bursts regenerates the daily interruption series and
// burst statistics.
func BenchmarkFigure5_Bursts(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs := rep.Analysis().Bursts(0)
		if bs.TotalInterruptions == 0 {
			b.Fatal("no interruptions")
		}
	}
}

// BenchmarkTableV_InterruptionFits regenerates Table V and Figure 6.
func BenchmarkTableV_InterruptionFits(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ir, err := rep.Analysis().InterruptionRates()
		if err != nil {
			b.Fatal(err)
		}
		if ir.System.N == 0 {
			b.Fatal("no system interruptions")
		}
	}
}

// BenchmarkObs8_Propagation regenerates the propagation statistics.
func BenchmarkObs8_Propagation(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := rep.Analysis().Propagation()
		if ps.InterruptingEvents == 0 {
			b.Fatal("no interrupting events")
		}
	}
}

// BenchmarkFigure7_Resubmission regenerates the conditional
// resubmission-risk curves.
func BenchmarkFigure7_Resubmission(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := rep.Analysis().Resubmissions(3)
		if rs.MaxK != 3 {
			b.Fatal("bad MaxK")
		}
	}
}

// BenchmarkTableVI_Vulnerability regenerates the size × runtime matrix.
func BenchmarkTableVI_Vulnerability(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vt := rep.Analysis().Vulnerability()
		if vt.Grand.Total == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkObs12_Suspicious regenerates the gain-ratio feature ranking
// and the suspicious-entity statistics.
func BenchmarkObs12_Suspicious(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := rep.Analysis().Features(12)
		if len(fr.System) != 5 {
			b.Fatal("bad ranking")
		}
	}
}

// BenchmarkAnalyze measures the analysis driver every log-to-report
// path runs, core.AnalyzeRun, over the campaign's FATAL records spooled
// into a resident store.Spool run, as repro.Load spools them: the
// run's merge, the filter cascade and the co-analysis from matching
// through job-related filtering. Garbage is collected only between
// ops, off the clock, as in BenchmarkRenderAll, so allocs/op repeats
// in every sample.
func BenchmarkAnalyze(b *testing.B) {
	camp, rep := benchCampaign(b)
	sp := store.NewSpool("", 0)
	fatal := camp.RAS.Fatal()
	for i := range fatal {
		if err := spoolFatal(sp, &fatal[i], 0); err != nil {
			b.Fatal(err)
		}
	}
	run, _, err := sp.Finish()
	if err != nil {
		b.Fatal(err)
	}
	defer run.Close()
	first, last := camp.RAS.Span()
	b.ReportAllocs()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		a, _, err := core.AnalyzeRun(core.DefaultConfig(), run, first, last, rep.Jobs())
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Events) == 0 || len(a.Interruptions) == 0 {
			b.Fatal("no events or no interruptions")
		}
	}
}

// --- ablation benches: the design choices DESIGN.md calls out ---

// BenchmarkAblationThinning measures the fault-process thinning draw,
// the hot loop of the simulator's fault injection.
func BenchmarkAblationThinning(b *testing.B) {
	model := faultgen.DefaultModel(errcat.Intrepid())
	rng := newBenchRand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.DrawCandidateGap(rng)
		_ = model.DrawSystemCode(rng)
	}
}

// BenchmarkAblationWorkloadGen measures synthetic workload generation.
func BenchmarkAblationWorkloadGen(b *testing.B) {
	cat := errcat.Intrepid()
	app := cat.ByClass(errcat.ClassApplication)
	for i := 0; i < b.N; i++ {
		spec := workload.DefaultSpec(int64(i+1), 1)
		spec.Days = 14
		if _, err := workload.New(spec, app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSimulateOnly measures the discrete-event scheduler
// without analysis.
func BenchmarkAblationSimulateOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(simulate.Config{Seed: int64(i + 1), Days: 14, NoisePerFatal: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMatchTolerance contrasts the matching stage under a
// tight and a loose tolerance (the precision/recall trade the design
// notes discuss).
func BenchmarkAblationMatchTolerance(b *testing.B) {
	camp, _ := benchCampaign(b)
	for _, tol := range []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute} {
		b.Run(tol.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.MatchTolerance = tol
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(cfg, camp.RAS, camp.Jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSchedulerPolicy contrasts the engine with and
// without partition affinity (SamePartitionProb), the knob behind the
// paper's 57.44% same-location resubmissions.
func BenchmarkAblationSchedulerPolicy(b *testing.B) {
	cat := errcat.Intrepid()
	spec := workload.DefaultSpec(1, 1)
	spec.Days = 14
	gen, err := workload.New(spec, cat.ByClass(errcat.ClassApplication))
	if err != nil {
		b.Fatal(err)
	}
	model := faultgen.DefaultModel(cat)
	emitCfg := faultgen.DefaultEmitterConfig()
	emitCfg.NoisePerFatal = 1
	for _, affinity := range []float64{0, 0.42} {
		name := "affinity-off"
		if affinity > 0 {
			name = "affinity-on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sched.DefaultConfig(int64(i + 1))
				cfg.SamePartitionProb = affinity
				if _, err := sched.Run(cfg, gen, model, emitCfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedRun measures a small scheduler campaign under every
// registered policy, so the gated baseline catches a slow counterfactual
// (or a regression in the engine's policy dispatch) per policy.
func BenchmarkSchedRun(b *testing.B) {
	cat := errcat.Intrepid()
	spec := workload.DefaultSpec(1, 1)
	spec.Days = 2
	spec.JobsPerDay = 60 // keep the per-op cost tractable for the gate
	gen, err := workload.New(spec, cat.ByClass(errcat.ClassApplication))
	if err != nil {
		b.Fatal(err)
	}
	model := faultgen.DefaultModel(cat)
	emitCfg := faultgen.DefaultEmitterConfig()
	emitCfg.NoisePerFatal = 1
	for _, policy := range sched.PolicyNames() {
		b.Run(policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sched.DefaultConfig(int64(i + 1))
				cfg.Policy = policy
				if _, err := sched.Run(cfg, gen, model, emitCfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func newBenchRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

// --- ensemble bench ---

func parName(p int) string {
	if p == 0 {
		return "p=gomaxprocs"
	}
	return "p=" + strconv.Itoa(p)
}

// BenchmarkEnsemble measures a multi-seed campaign (simulate + analyze
// + summarize per seed, then aggregate), sequential vs parallel.
func BenchmarkEnsemble(b *testing.B) {
	for _, p := range []int{1, 0} {
		b.Run(parName(p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := QuickConfig(1)
				cfg.Days = 7
				cfg.Seeds = 4
				cfg.Parallelism = p
				ens, err := RunEnsemble(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(ens.PerSeed) != 4 {
					b.Fatal("short ensemble")
				}
			}
		})
	}
}

// BenchmarkRenderAll renders the whole report from the analysis. Under
// -cpu 1, bgpbench's setting, the report's Parallelism resolves to one
// worker, so the artifacts render in place, one after another, and no
// goroutine starts. Garbage is collected only between ops, off the
// clock: a collection inside an op empties fmt's sync.Pool, and the
// refills would make allocs/op differ between samples.
func BenchmarkRenderAll(b *testing.B) {
	rep := benchReport(b)
	b.ReportAllocs()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		if err := rep.RenderAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension benches ---

// BenchmarkExtensionPrediction evaluates the §VII failure-prediction
// study over the campaign's event stream.
func BenchmarkExtensionPrediction(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := rep.PredictorStudy()
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) == 0 {
			b.Fatal("no predictor results")
		}
	}
}

// BenchmarkExtensionCheckpoint runs the checkpoint-policy Monte Carlo
// under the fitted failure model.
func BenchmarkExtensionCheckpoint(b *testing.B) {
	rep := benchReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := rep.CheckpointStudy(24*time.Hour, 5*time.Minute, 50)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) == 0 {
			b.Fatal("no checkpoint results")
		}
	}
}
