// Command bgpbench is the benchmark harness behind the CI perf gate:
// it runs the named codec + pipeline + grouping benchmark subset with a
// fixed -benchtime/-count, emits a machine-readable JSON report (schema
// repro/bgpbench/v1, see bench.baseline.json at the repo root), and compares
// a fresh report against a committed baseline with a tolerance gate.
//
// Usage:
//
//	bgpbench run -out bench.baseline.json        # collect a report
//	bgpbench run -count 5 -benchtime 2000x -out bench.json
//	bgpbench compare -baseline bench.baseline.json -current bench.json
//
// Exit codes: 0 pass (or comparison skipped on host mismatch),
// 1 regression detected, 2 harness failure.
//
// The gate: a benchmark regresses when its ns/op or B/op exceeds the
// baseline by more than -tolerance (default 25%), or when its allocs/op
// grows at all. A gate that forbids any allocs/op growth needs a count
// that repeats exactly between samples, and the report is refused when
// it does not. Two things made counts waver. With more than one P, the
// goroutine-spawning benchmarks' allocs/op differ by one between
// samples, so every benchmark runs at -cpu 1 (benchCPU). And a garbage
// collection inside an op empties sync.Pools (fmt, encoding/json,
// net/textproto on the serve path), whose refills then depend on when
// the collector ran; -cpu 1 does not stop that. A benchmark whose count
// depends on the collector (BenchmarkServeIngest,
// BenchmarkStreamPipeline) turns automatic collection off and collects
// before each op, off the clock: its ns/op leaves out collection time,
// while B/op and allocs/op still count every allocation. When the current
// host metadata differs from the baseline's (Go minor version, OS, arch or CPU count), the comparison
// is skipped with a warning — cross-host ns/op deltas are noise, and a
// skipped gate is visible in the CI log rather than silently green on
// bad data.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// benchSubset is the named benchmark set the gate watches: the codec
// microbenchmarks, the streaming pipeline, the symtab-keyed grouping
// paths (the filter cascade and the co-analysis grouping stages), the
// serving daemon's ingest and query paths, the segmented store's
// encode/scan/merge paths, a small scheduler campaign per registered
// policy (BenchmarkSchedRun expands into one sub-benchmark per policy,
// so each counterfactual is gated individually), and the §VII
// prediction study over the quick campaign. The *Legacy oracles of the
// codec and cascade property tests are not gated: nothing outside
// their tests runs them.
var benchSubset = []string{
	"BenchmarkRASUnmarshal",
	"BenchmarkRASUnmarshalFields",
	"BenchmarkRASMarshal",
	"BenchmarkRASDecodeParallel",
	"BenchmarkJobUnmarshal",
	"BenchmarkJobMarshal",
	"BenchmarkStreamPipeline",
	"BenchmarkFilterCascade",
	"BenchmarkCoanalysisGrouping",
	"BenchmarkServeIngest",
	"BenchmarkServeQuery",
	"BenchmarkSegmentEncode",
	"BenchmarkSegmentScan",
	"BenchmarkSegmentMerge",
	"BenchmarkSchedRun",
	"BenchmarkExtensionPrediction",
}

// benchCPU is the GOMAXPROCS every gated benchmark runs at (go test
// -cpu). It is a constant, not a flag: a baseline and a fresh report
// are only comparable when both were collected at the same value.
const benchCPU = 1

// benchPackages are the packages the subset lives in.
var benchPackages = []string{"./internal/raslog", "./internal/joblog", "./internal/filter", "./internal/serve", "./internal/store", "."}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "bgpbench: want subcommand: run | compare")
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "bgpbench: unknown subcommand %q (want run | compare)\n", args[0])
		return 2
	}
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bgpbench run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "", "write the JSON report here (default stdout)")
		count     = fs.Int("count", 5, "benchmark repetitions (-count); min ns/op across samples is reported")
		benchtime = fs.String("benchtime", "2000x", "fixed -benchtime (use Nx iteration counts for comparability)")
		chdir     = fs.String("C", "", "run go test from this directory (default: current)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, raw, err := collect(*chdir, *benchtime, *count)
	if err != nil {
		fmt.Fprintf(stderr, "bgpbench: %v\n", err)
		if raw != nil {
			stderr.Write(raw)
		}
		return 2
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "bgpbench: %v\n", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	if err := writeReport(w, rep); err != nil {
		fmt.Fprintf(stderr, "bgpbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "bgpbench: %d benchmarks, -benchtime %s -count %d\n",
		len(rep.Benchmarks), rep.Benchtime, rep.Count)
	return 0
}

// collect shells out to `go test -bench` over the fixed subset and
// parses the output into a Report. The raw output is returned for
// diagnostics when parsing or the run fails.
func collect(dir, benchtime string, count int) (*Report, []byte, error) {
	cmd := exec.Command("go", goTestArgs(benchtime, count)...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		return nil, buf.Bytes(), fmt.Errorf("go test -bench: %w", err)
	}
	samples, err := parseBenchOutput(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, buf.Bytes(), err
	}
	if len(samples) == 0 {
		return nil, buf.Bytes(), fmt.Errorf("no benchmark results in go test output")
	}
	benches, err := reduce(samples)
	if err != nil {
		return nil, buf.Bytes(), err
	}
	host := currentHost()
	host.GOMAXPROCS = benchCPU
	return &Report{
		Schema:        SchemaV1,
		GeneratedWith: host,
		Benchtime:     benchtime,
		Count:         count,
		Benchmarks:    benches,
	}, nil, nil
}

// goTestArgs is the `go test` command line collect runs: the fixed
// subset over benchPackages at -cpu benchCPU.
func goTestArgs(benchtime string, count int) []string {
	re := "^(" + strings.Join(benchSubset, "|") + ")$"
	args := []string{"test", "-run", "^$", "-bench", re, "-cpu", fmt.Sprint(benchCPU),
		"-benchtime", benchtime, "-count", fmt.Sprint(count), "-benchmem", "-timeout", "30m"}
	return append(args, benchPackages...)
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bgpbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		basePath  = fs.String("baseline", "bench.baseline.json", "committed baseline report")
		curPath   = fs.String("current", "", "fresh report to gate (required)")
		tolerance = fs.Float64("tolerance", 0.25, "allowed ns/op growth fraction")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *curPath == "" {
		fmt.Fprintln(stderr, "bgpbench compare: -current is required")
		return 2
	}
	baseline, err := readReportFile(*basePath)
	if err != nil {
		fmt.Fprintf(stderr, "bgpbench: baseline: %v\n", err)
		return 2
	}
	current, err := readReportFile(*curPath)
	if err != nil {
		fmt.Fprintf(stderr, "bgpbench: current: %v\n", err)
		return 2
	}
	if ok, why := baseline.GeneratedWith.Comparable(current.GeneratedWith); !ok {
		fmt.Fprintf(stdout, "bgpbench: SKIP comparison: host metadata differs (%s); ns/op across hosts is noise\n", why)
		fmt.Fprintf(stdout, "bgpbench: regenerate the baseline on this host with `make bench-baseline` to enable gating\n")
		// A skipped gate must be loud in CI, not just a log line: emit a
		// GitHub Actions annotation so the run summary carries it.
		if os.Getenv("GITHUB_ACTIONS") == "true" {
			fmt.Fprintf(stdout, "::warning title=bgpbench gate skipped::perf comparison skipped, host metadata differs (%s); regenerate the baseline on a CI-class host\n", why)
		}
		return 0
	}
	regs := compareReports(baseline, current, *tolerance)
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "bgpbench: OK — %d benchmarks within tolerance (%.0f%% ns/op and B/op, 0 allocs/op growth)\n",
			len(baseline.Benchmarks), 100**tolerance)
		return 0
	}
	fmt.Fprintf(stdout, "bgpbench: %d regression(s) vs %s:\n", len(regs), *basePath)
	for _, r := range regs {
		fmt.Fprintf(stdout, "  FAIL %s: %s\n", r.Key, r.Reason)
	}
	return 1
}

func readReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readReport(f)
}
