package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatchesMetrics).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are what a user of the system sees, reported by every
// workload with tracing off and gated by the bounds in BENCHMARK.json.
// For the batch workloads "result" is the report printed by one
// coanalyze run, its time scaled to the reference host speed (see
// reference.go); for daemon-live it is a batch's records showing in a
// published epoch. Set-up time is scaled too.
var endToEnd = []metricDef{
	{"time_to_result_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// demoted are end-to-end metrics every run measures but none gates,
// reported with the per-layer metrics. Between runs of one commit on a
// shared 2-CPU host the raw result time spread by up to 54%, the
// daemon's CPU time by up to 31% and its ingest rate by up to 29%, more
// than the largest bound: CPU time and the daemon's two busy cores slow
// with the host. Throughput is RAS records per second: per coanalyze
// run, or the daemon's ingest rate. host.reference_ms is the reference
// task's median time, the host speed the run saw.
var demoted = []metricDef{
	{"raw_time_to_result_ms", "ms", "lower"},
	{"throughput_rec_per_s", "rec/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"host.reference_ms", "ms", "lower"},
}

// layers are the spans a traced run reports, by the package and call
// they time. Every workload reports every one; a layer a workload does
// not run has a 0% share.
var layers = []string{
	"raslog.decode", "joblog.decode", "raslog.store",
	"filter.pipeline", "filter.incremental",
	"store.spool_add", "store.spool_finish", "store.merge",
	"core.occupancy", "core.analyze", "repro.logstats",
	"serve.ingest_ras", "serve.ingest_jobs", "serve.publish",
	"serve.query", "serve.fragment", "serve.scan", "serve.quiesce",
}

// allocLayers report heap bytes allocated inside their spans. Layers
// timed per record in an interleaved loop (membound's decode and spool)
// report 0: allocation is read only at span boundaries, and theirs is
// in their loop's span, which trace.alloc_mb counts.
var allocLayers = []string{
	"raslog.decode", "joblog.decode", "raslog.store", "filter.pipeline",
	"core.occupancy", "core.analyze", "repro.logstats", "repro.render",
	"store.spool_finish", "serve.ingest_ras", "serve.publish", "serve.fragment",
}

// counts are the per-layer work counts and ratios, each ratio next to
// its base.
var counts = []metricDef{
	{"filter.fatal_in", "count", "higher"},
	{"filter.events_out", "count", "lower"},
	{"filter.compression_pct", "%", "lower"},
	{"store.merge.segments", "count", "lower"},
	{"store.merge.zone_skip_pct", "%", "higher"},
	{"store.scan.segments", "count", "lower"},
	{"store.scan.zone_skip_pct", "%", "higher"},
	{"store.spool.flushes", "count", "lower"},
	{"store.spool.spilled_mb", "MB", "lower"},
	{"serve.publish.count", "count", "higher"},
	{"parallel.speedup_x", "x", "higher"},
}

// perLayer lists every per-layer metric in report order, the demoted
// end-to-end ones first. Layer times are shares of the traced run's wall
// time (trace.total_s), so a layer that a workload skips reads 0%
// rather than a time.
func perLayer() []metricDef {
	defs := append(append([]metricDef(nil), demoted...),
		metricDef{"trace.total_s", "s", "lower"},
		metricDef{"trace.unattributed_s", "s", "lower"},
		metricDef{"trace.overhead_s", "s", "lower"},
		metricDef{"trace.alloc_mb", "MB", "lower"},
	)
	for _, l := range selfLayers() {
		defs = append(defs, metricDef{l + ".self_pct", "%", "lower"})
	}
	for _, l := range allocLayers {
		defs = append(defs, metricDef{l + ".alloc_mb", "MB", "lower"})
	}
	return append(defs, counts...)
}

// selfLayers is layers plus one layer per rendered artifact, in
// RenderAll order.
func selfLayers() []string {
	out := append([]string(nil), layers...)
	for _, a := range renderOrder {
		out = append(out, "repro.render."+a.key)
	}
	return out
}

// metric is one measured value; samples are the per-repetition values
// it summarizes.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// layerMetrics derives the per-layer metrics of one traced run.
func layerMetrics(tr *tracer, total, overhead float64, a analysis, speedup float64) (map[string]metric, []ledgerRow, float64) {
	rows, attributed := ledger(tr.spans)
	unattributed := total - attributed
	var alloc uint64
	for _, s := range tr.spans {
		if s.Parent == 0 {
			alloc += s.Alloc
		}
	}
	m := map[string]metric{
		"trace.total_s":        {Value: total, Unit: "s"},
		"trace.unattributed_s": {Value: unattributed, Unit: "s"},
		"trace.overhead_s":     {Value: overhead, Unit: "s"},
		"trace.alloc_mb":       {Value: mib(alloc), Unit: "MB"},
	}
	for _, l := range selfLayers() {
		m[l+".self_pct"] = metric{Value: pct(row(rows, l).Self, total), Unit: "%"}
	}
	for _, l := range allocLayers {
		m[l+".alloc_mb"] = metric{Value: mib(row(rows, l).Alloc), Unit: "MB"}
	}
	set := func(name string, v float64) {
		for _, d := range counts {
			if d.Name == name {
				m[name] = metric{Value: v, Unit: d.Unit}
				return
			}
		}
		panic("bench: undeclared count " + name)
	}
	set("filter.fatal_in", float64(a.filter.Input))
	set("filter.events_out", float64(a.events))
	set("filter.compression_pct", pct(float64(a.events), float64(a.filter.Input)))
	set("store.merge.segments", float64(a.merge.Segments))
	set("store.merge.zone_skip_pct", pct(float64(a.merge.Skipped), float64(a.merge.Segments)))
	set("store.scan.segments", float64(a.scan.Segments))
	set("store.scan.zone_skip_pct", pct(float64(a.scan.Skipped), float64(a.scan.Segments)))
	set("store.spool.flushes", float64(a.spool.Flushes))
	set("store.spool.spilled_mb", mib(uint64(a.spool.SpilledBytes)))
	set("serve.publish.count", float64(a.publishes))
	set("parallel.speedup_x", speedup)
	return m, rows, unattributed
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }
