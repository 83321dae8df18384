// Command bench is the end-to-end benchmark of the co-analysis
// programs. It builds cmd/coanalyze and cmd/bgpd from the checkout it
// runs in, generates one workload's logs from -seed, drives the real
// programs for -seconds, checks every output against an in-process
// reference, and prints each metric by name with its unit. The last
// line of standard output is the result as one JSON object.
//
// Usage, from the repository root (see bench/README.md):
//
//	bash bench/run.sh --workload paper-batch --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload daemon-live --seed 2 --trace 1 --out runs.jsonl
//	bash bench/run.sh compare parent.jsonl change.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runTimeout caps a run of a workload at its own campaign length, after
// the build: such a run must end within 180 seconds.
const runTimeout = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: paper-batch, noise-light, membound or daemon-live")
		seed    = fs.Int64("seed", 1, "seed of the generated non-fatal record stream")
		seconds = fs.Int("seconds", 15, "how long to drive the program under test")
		trace   = fs.Int("trace", 0, "1: also make the traced in-process run, write its spans and report per-layer metrics")
		out     = fs.String("out", "", "append the full result (samples, ledger, host) as one JSON line to this file")
		days    = fs.Int("days", 0, "campaign length in days (0 = the workload's; any other length runs without the time cap)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || *days < 0 {
		fmt.Fprintf(stderr, "bench: want --workload NAME --seed N --seconds S (S >= 1) --trace 0|1 (%v)\n", err)
		return 2
	}
	root, err := os.Getwd()
	if err == nil {
		_, err = os.Stat(filepath.Join(root, "cmd", "coanalyze", "main.go"))
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench: run from the root of a repository checkout:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work := filepath.Join(root, ".bench_build")
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, days: w.days,
		bin: filepath.Join(work, "bin")}
	if *trace == 1 {
		cfg.traceOut = filepath.Join(work, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
	}
	if err := buildPrograms(ctx, root, cfg.bin); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *days == 0 || *days == w.days {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, runTimeout)
		defer cancel()
	} else {
		cfg.days = *days
	}
	if cfg.work, err = os.MkdirTemp(work, "run-"); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	started := time.Now().UTC()
	o, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, e := range o.ops.errs {
		fmt.Fprintln(stderr, "bench: failed:", e)
	}
	printReport(stdout, cfg, o)
	if *out != "" {
		if err := appendRecord(*out, newRecord(cfg, started, o)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(resultLine(cfg, o))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of output. Its metrics carry no samples.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultLine is the last line of output: the gated end-to-end metrics,
// or with tracing the per-layer ones.
func resultLine(cfg config, o *outcome) result {
	src, defs := o.e2e, endToEnd
	if cfg.trace {
		src, defs = o.perLayer, perLayer()
	}
	r := result{Correct: o.ops.failed == 0, Attempted: max(1, o.ops.attempted), Failed: o.ops.failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metric{Value: src[d.Name].Value, Unit: d.Unit}
	}
	return r
}

func printReport(w io.Writer, cfg config, o *outcome) {
	fmt.Fprintf(w, "%s seed %d: %d RAS records (%.1f MB), %d jobs over %d days; %d operations, %d failed\n",
		cfg.w.name, cfg.seed, o.in.rasRecords, mib(uint64(o.in.rasBytes)), o.in.jobs, cfg.days,
		o.ops.attempted, o.ops.failed)
	for _, d := range endToEnd {
		m := o.e2e[d.Name]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s (%d samples)\n", d.Name, m.Value, m.Unit, len(m.Samples))
	}
	for _, d := range demoted {
		m := o.e2e[d.Name]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s (%d samples, not gated)\n", d.Name, m.Value, m.Unit, len(m.Samples))
	}
	for _, k := range sortedNames(o.info) {
		if k == "inputs" {
			continue
		}
		b, _ := json.Marshal(o.info[k])
		fmt.Fprintf(w, "  %s: %s\n", k, b)
	}
	if !cfg.trace {
		return
	}
	fmt.Fprintf(w, "traced run: %.4f s, %.4f s unattributed (%.1f%%); spans in %s\n",
		o.total, o.unattrd, pct(o.unattrd, o.total), cfg.traceOut)
	fmt.Fprintf(w, "  %-30s %10s %7s %7s %10s %10s %9s\n", "layer", "self_s", "share", "calls", "in", "out", "alloc_mb")
	for _, r := range o.ledger {
		fmt.Fprintf(w, "  %-30s %10.4f %6.1f%% %7d %10d %10d %9.1f\n",
			r.Name, r.Self, pct(r.Self, o.total), r.Calls, r.In, r.Out, mib(r.Alloc))
	}
	fmt.Fprintf(w, "  %-30s %10.4f %6.1f%%\n", "(unattributed)", o.unattrd, pct(o.unattrd, o.total))
	for _, d := range perLayer()[len(demoted):] { // the demoted ones are printed above
		if m := o.perLayer[d.Name]; !strings.HasSuffix(d.Name, "_pct") || m.Value != 0 {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

// record is what -out appends: one run, with every sample and the host.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Days      int               `json:"days"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Started   string            `json:"started"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Info      map[string]any    `json:"info,omitempty"`
	Ledger    []ledgerRow       `json:"ledger,omitempty"`
}

type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Go         string `json:"go"`
}

func newRecord(cfg config, started time.Time, o *outcome) record {
	return record{
		Workload: cfg.w.name, Seed: cfg.seed, Days: cfg.days, Seconds: cfg.seconds, Trace: cfg.trace,
		Started: started.Format(time.RFC3339),
		Host: host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Go: runtime.Version()},
		Correct: o.ops.failed == 0, Attempted: o.ops.attempted, Failed: o.ops.failed, Errors: o.ops.errs,
		Metrics: o.e2e, PerLayer: o.perLayer, Info: o.info, Ledger: o.ledger,
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	return errors.Join(werr, f.Close())
}
