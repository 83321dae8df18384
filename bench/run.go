package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"
)

const (
	setupReps = 3 // set-ups per run; setup_s is their median
	minReps   = 3 // coanalyze runs per batch run, at least
	minCycles = 3 // bgpd lives per daemon run, at least; the first also sweeps
)

// ops counts operations attempted and failed, keeping the first few
// failure messages.
type ops struct {
	attempted, failed int
	errs              []string
}

func (o *ops) add(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

func (o *ops) merge(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, e := range p.errs {
		if len(o.errs) < 8 {
			o.errs = append(o.errs, e)
		}
	}
}

// config is one benchmark run.
type config struct {
	w        workload
	seed     int64
	seconds  int
	trace    bool
	days     int    // campaign length
	work     string // this run's files; removed by the caller
	bin      string // holds the built coanalyze and bgpd
	traceOut string // where the traced run's spans are written
}

// outcome is everything one run measured.
type outcome struct {
	ops      ops
	in       inputs
	e2e      map[string]metric // gated and demoted end-to-end metrics
	perLayer map[string]metric // traced runs only
	info     map[string]any
	ledger   []ledgerRow
	total    float64 // traced run's wall time
	unattrd  float64
	wall     float64   // median batch program wall time, s
	refs     []float64 // reference task times, s
}

// reference times the reference task once.
func (o *outcome) reference() {
	o.refs = append(o.refs, referenceTask().Seconds())
}

// runWorkload sets up the workload's inputs, computes the in-process
// reference report, drives the program under test for cfg.seconds and,
// when tracing, makes the traced in-process run.
func runWorkload(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{e2e: map[string]metric{}, info: map[string]any{}}
	var setups []float64
	var f feed
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		in, err := generate(cfg.w, cfg.days, cfg.seed, cfg.work)
		if err == nil && cfg.w.kind == kindDaemon {
			f, err = prepareFeed(in)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		o.in = in
		o.reference()
	}
	o.info["inputs"] = map[string]any{
		"days": cfg.days, "ras_records": o.in.rasRecords, "ras_mb": mib(uint64(o.in.rasBytes)), "jobs": o.in.jobs,
	}
	ref, err := runBatch(nil, o.in)
	if err != nil {
		return nil, fmt.Errorf("reference report: %w", err)
	}
	// Hand the set-up's heap back to the system before the program under
	// test runs beside this process.
	debug.FreeOSMemory()

	env := []string{"TMPDIR=" + cfg.work}
	var ready float64
	if cfg.w.kind == kindDaemon {
		ready, err = measureDaemon(ctx, cfg, env, f, ref, o)
	} else {
		err = measureBatch(ctx, cfg, env, ref, o)
	}
	// Generation is CPU-bound and scales with the host; bgpd's readiness
	// is a few milliseconds and is added as measured.
	scale := hostScale(o.refs)
	for i := range setups {
		setups[i] = setups[i]*scale + ready
	}
	o.set("setup_s", setups)
	o.set("host.reference_ms", scaled(o.refs, 1000))
	if err == nil && cfg.trace {
		err = traceRun(ctx, cfg, env, f, ref, o)
	}
	return o, err
}

func batchArgs(w workload, in inputs) []string {
	args := []string{"-ras", in.rasPath, "-job", in.jobPath}
	if w.kind == kindMembound {
		args = append(args, "-mem-budget", strconv.FormatInt(in.rasBytes/10, 10))
	}
	return args
}

// measureBatch runs coanalyze over the logs back to back for
// cfg.seconds (minReps at least), checking every report, with the
// reference task after each run. The gated result time is scaled to
// the reference host speed; the raw one is reported beside it.
func measureBatch(ctx context.Context, cfg config, env []string, ref analysis, o *outcome) error {
	prog := filepath.Join(cfg.bin, "coanalyze")
	args := batchArgs(cfg.w, o.in)
	var walls, cpus, rss, rates []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for n := 1; n <= minReps || time.Now().Before(deadline); n++ {
		e := runProgram(ctx, env, prog, args...)
		if err := ctx.Err(); err != nil {
			return err
		}
		o.ops.add(e.err == nil && e.digest == ref.digest,
			"coanalyze run %d: err %v, report sha256 %.12s, want %.12s", n, e.err, e.digest, ref.digest)
		walls = append(walls, e.wall.Seconds())
		cpus = append(cpus, e.cpu.Seconds())
		rss = append(rss, float64(e.rssKB)/1024)
		rates = append(rates, float64(o.in.rasRecords)/e.wall.Seconds())
		o.reference()
	}
	o.wall = median(walls)
	o.set("time_to_result_ms", scaled(walls, 1000*hostScale(o.refs)))
	o.set("raw_time_to_result_ms", scaled(walls, 1000))
	o.set("throughput_rec_per_s", rates)
	o.set("cpu_s", cpus)
	o.set("peak_rss_mb", rss)
	return nil
}

// scaled returns xs times f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// measureDaemon runs bgpd lives back to back for cfg.seconds (minCycles
// at least), with the reference task after each, and returns the median
// readiness time. Lags and query latencies pool over lives; the other
// metrics are medians of per-life values, leaving out CPU time and
// memory of the life that also ran the read-only sweep. The lag is
// reported as measured: the 250 ms publication tick, not the host's
// speed, sets most of it.
func measureDaemon(ctx context.Context, cfg config, env []string, f feed, ref analysis, o *outcome) (float64, error) {
	prog := filepath.Join(cfg.bin, "bgpd")
	var cycles []cycle
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for n := 0; n < minCycles || time.Now().Before(deadline); n++ {
		dir, err := os.MkdirTemp(cfg.work, "bgpd-")
		if err != nil {
			return 0, err
		}
		c, err := runCycle(ctx, prog, env, dir, f, ref, n == 0)
		os.RemoveAll(dir)
		o.ops.merge(c.ops)
		if err != nil {
			return 0, err
		}
		cycles = append(cycles, c)
		o.reference()
	}

	var lags, lagMedians, ready, rates, cpus, rss []float64
	var live []shot
	var steps []sweepRate
	for _, c := range cycles {
		lags = append(lags, c.lags...)
		lagMedians = append(lagMedians, median(c.lags))
		live = append(live, c.live...)
		ready = append(ready, c.ready.Seconds())
		rates = append(rates, float64(c.records)/c.ingest.Seconds())
		if c.sweep != nil {
			steps = c.sweep
			continue
		}
		cpus = append(cpus, c.cpu.Seconds())
		rss = append(rss, float64(c.rssKB)/1024)
	}
	// Lags pool over lives; the samples are each life's median.
	lag := metric{Value: median(lags), Unit: "ms", Samples: lagMedians}
	o.e2e["time_to_result_ms"], o.e2e["raw_time_to_result_ms"] = lag, lag
	o.set("throughput_rec_per_s", rates)
	o.set("cpu_s", cpus)
	o.set("peak_rss_mb", rss)

	lagTail := latencies{N: len(lags), P50: median(lags)}
	if p, ok := tailPercentile(len(lags)); ok {
		lagTail.TailPct, lagTail.Tail = 100*p, percentile(append([]float64(nil), lags...), p)
	}
	o.info["daemon"] = map[string]any{
		"lives":             len(cycles),
		"ready_s":           ready,
		"visibility_lag":    lagTail,
		"live_queries":      summarize(live),
		"sweep":             steps,
		"query_max_qps":     maxQPS(steps),
		"ingest_rec_per_s":  rates,
		"live_backlog_grew": backlogGrows(live),
	}
	return median(ready), nil
}

// traceRun makes the untraced and then the traced in-process run of the
// workload, checks the traced run's output, and derives the per-layer
// metrics. Batch workloads also run coanalyze once at GOMAXPROCS=1 as
// the single-threaded baseline.
func traceRun(ctx context.Context, cfg config, env []string, f feed, ref analysis, o *outcome) error {
	inProcess := func(tr *tracer) (analysis, time.Duration, error) {
		dir, err := os.MkdirTemp(cfg.work, "inproc-")
		if err != nil {
			return analysis{}, 0, err
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		var a analysis
		switch cfg.w.kind {
		case kindBatch:
			a, err = runBatch(tr, o.in)
		case kindMembound:
			a, err = runMembound(tr, o.in, dir)
		default:
			var eops ops
			a, eops, err = runEngine(tr, f, dir)
			o.ops.merge(eops)
		}
		return a, time.Since(t0), err
	}
	_, untraced, err := inProcess(nil)
	if err != nil {
		return fmt.Errorf("untraced in-process run: %w", err)
	}
	tr := newTracer(fmt.Sprintf("%s/seed-%d", cfg.w.name, cfg.seed))
	a, total, err := inProcess(tr)
	if err != nil {
		return fmt.Errorf("traced in-process run: %w", err)
	}
	if cfg.w.kind == kindDaemon {
		for _, name := range checkedReports {
			o.ops.add(bytes.Equal(a.artifacts[name], ref.artifacts[name]),
				"traced engine: report %s differs from the batch report", name)
		}
	} else {
		o.ops.add(a.digest == ref.digest, "traced run: report sha256 %.12s, want %.12s", a.digest, ref.digest)
	}

	speedup := 0.0
	if cfg.w.kind != kindDaemon {
		e := runProgram(ctx, append(env, "GOMAXPROCS=1"), filepath.Join(cfg.bin, "coanalyze"), batchArgs(cfg.w, o.in)...)
		o.ops.add(e.err == nil && e.digest == ref.digest, "coanalyze at GOMAXPROCS=1: err %v, report sha256 %.12s", e.err, e.digest)
		// Both times in reference-task units, as the host may have
		// changed speed since the measured runs.
		single := e.wall.Seconds() / referenceTask().Seconds()
		speedup = single / (o.wall / median(o.refs))
		o.info["single_thread_wall_s"] = e.wall.Seconds()
	}
	o.total = total.Seconds()
	o.perLayer, o.ledger, o.unattrd = layerMetrics(tr, o.total, o.total-untraced.Seconds(), a, speedup)
	for _, d := range demoted {
		o.perLayer[d.Name] = o.e2e[d.Name]
	}
	if cfg.traceOut == "" {
		return nil
	}
	return writeTrace(cfg.traceOut, traceFile{
		Run: tr.run, Total: o.total, Unattributed: o.unattrd, Ledger: o.ledger, Spans: tr.spans,
	})
}

// set records an end-to-end metric, gated or demoted, as the median of
// its samples.
func (o *outcome) set(name string, samples []float64) {
	for _, d := range append(endToEnd, demoted...) {
		if d.Name == name {
			o.e2e[name] = metric{Value: median(samples), Unit: d.Unit, Samples: samples}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}
