// Command bgpescape is the compiler-escape-analysis budget gate behind
// CI: it rebuilds the hot packages with the gc compiler's JSON
// diagnostics enabled (-gcflags=-json=0,DIR), parses the escape and
// inlining verdicts into a machine-readable report (schema
// repro/bgpescape/v1, see escape.baseline.json at the repo root), and
// compares a fresh report against the committed baseline.
//
// Usage:
//
//	bgpescape run -out escape.baseline.json
//	bgpescape compare -baseline escape.baseline.json -current esc.json
//
// Exit codes: 0 pass (or comparison skipped on toolchain mismatch),
// 1 budget violation, 2 harness failure.
//
// The gate has three rules:
//
//  1. New heap escapes: an (file, function, message) escape site whose
//     multiset count exceeds the baseline's fails. Reports are
//     line-free, so unrelated edits never churn the baseline.
//  2. Lost inlining: a function the baseline records as inlinable that
//     the current compiler can no longer inline fails — inlining is
//     what lets the escape analyzer stack-allocate across the small
//     helpers of the hot paths.
//  3. Zero-escape ingest codec: the per-event ingest roots in
//     codecRoots (raslog/joblog unmarshalers, appenders and readers)
//     must have no escape sites at all, baseline or not. The codec
//     decodes every record, about 62 noise records per FATAL one, so
//     it must not allocate; this rule pins that.
//
// Every diagnostic the compiler files under code "escapes" or
// "escape" counts: go1.24 reports interface boxing, &T{} literals and
// most maps under the latter.
//
// When the current toolchain differs from the baseline's (Go minor,
// GOOS or GOARCH), rules 1-2 are skipped with a warning — escape
// verdicts move between compiler minors — but rule 3 still runs: it is
// a claim about the current compiler's output, not a diff.
//
// Each run builds into a fresh scratch directory. The diagnostics
// directory is part of the compiler's cache key, so a fresh directory
// forces the gated packages (only) to recompile and re-emit their
// verdicts; reusing one would silently yield empty output on cache
// hits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// escapePackages is the gated hot set: the codec, store, cascade,
// analysis and serving packages whose per-event paths the pipeline
// keeps allocation-free. "." is the module's root package, repro, home
// of LogStats.ObserveRAS.
var escapePackages = []string{
	".",
	"./internal/bgp",
	"./internal/core",
	"./internal/filter",
	"./internal/joblog",
	"./internal/raslog",
	"./internal/serve",
	"./internal/store",
	"./internal/symtab",
}

// codecRoots are the per-event roots of the ingest codec (and of bgp,
// whose partition encoder the job codec calls), by import path, that
// carry the zero-escape hard assertion (rule 3). Names are "Recv.Name"
// as in Escape.Func. The cascade's per-event roots are excluded
// deliberately: inlined interner initialization and the cold
// out-of-order error value (both in filter.Incremental.Feed) escape by
// design and are governed by the baseline diff instead.
var codecRoots = map[string][]string{
	"repro/internal/bgp":    {"Partition.AppendTo"},
	"repro/internal/joblog": {"Job.AppendLine", "Job.MarshaledLen", "Job.UnmarshalFields", "Reader.Next"},
	"repro/internal/raslog": {"Reader.Next", "Record.AppendLine", "Record.MarshaledLen", "Record.UnmarshalFields"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "bgpescape: want subcommand: run | compare")
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "bgpescape: unknown subcommand %q (want run | compare)\n", args[0])
		return 2
	}
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bgpescape run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, buildOut, err := collect("", escapePackages)
	if err != nil {
		fmt.Fprintf(stderr, "bgpescape: %v\n", err)
		if len(buildOut) > 0 {
			stderr.Write(buildOut)
		}
		return 2
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "bgpescape: %v\n", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	if err := writeReport(w, rep); err != nil {
		fmt.Fprintf(stderr, "bgpescape: %v\n", err)
		return 2
	}
	nEsc, nFns := 0, 0
	for _, p := range rep.Packages {
		for _, e := range p.Escapes {
			nEsc += e.Count
		}
		nFns += len(p.Inlinable) + len(p.NotInlinable)
	}
	fmt.Fprintf(stderr, "bgpescape: %d packages, %d escape sites, %d functions with inline verdicts\n",
		len(rep.Packages), nEsc, nFns)
	return 0
}

// collect rebuilds the packages with JSON diagnostics into a fresh
// scratch directory and parses the result. The raw go build output is
// returned for diagnostics when the build fails.
func collect(dir string, pkgs []string) (*Report, []byte, error) {
	tmp, err := os.MkdirTemp("", "bgpescape-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	// -gcflags with no pattern applies only to the packages named on
	// the command line — dependencies build normally and stay cached.
	goArgs := append([]string{"build", "-gcflags=-json=0," + tmp}, pkgs...)
	cmd := exec.Command("go", goArgs...)
	cmd.Dir = dir
	if buildOut, err := cmd.CombinedOutput(); err != nil {
		return nil, buildOut, fmt.Errorf("go build: %w", err)
	}
	root := dir
	if root == "" {
		root = "."
	}
	if abs, err := filepath.Abs(root); err == nil {
		root = abs
	}
	packages, err := parseDiagDir(tmp, root)
	if err != nil {
		return nil, nil, err
	}
	if len(packages) == 0 {
		return nil, nil, fmt.Errorf("no diagnostics emitted (packages already built with identical flags?)")
	}
	return &Report{Schema: SchemaV1, GeneratedWith: currentHost(), Packages: packages}, nil, nil
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bgpescape compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		basePath = fs.String("baseline", "escape.baseline.json", "committed baseline report")
		curPath  = fs.String("current", "", "fresh report to gate (required)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *curPath == "" {
		fmt.Fprintln(stderr, "bgpescape compare: -current is required")
		return 2
	}
	baseline, err := readReportFile(*basePath)
	if err != nil {
		fmt.Fprintf(stderr, "bgpescape: baseline: %v\n", err)
		return 2
	}
	current, err := readReportFile(*curPath)
	if err != nil {
		fmt.Fprintf(stderr, "bgpescape: current: %v\n", err)
		return 2
	}

	// Rule 3 first: it gates the current report alone, so a toolchain
	// mismatch never hides a codec-path escape.
	failures := codecEscapes(current)

	if ok, why := baseline.GeneratedWith.Comparable(current.GeneratedWith); !ok {
		fmt.Fprintf(stdout, "bgpescape: SKIP baseline comparison: toolchain differs (%s); escape verdicts move between compiler minors\n", why)
		fmt.Fprintf(stdout, "bgpescape: regenerate the baseline with `make escape-baseline` to enable gating\n")
		// Surface the skipped gate in the CI run summary, not only the log.
		if os.Getenv("GITHUB_ACTIONS") == "true" {
			fmt.Fprintf(stdout, "::warning title=bgpescape gate skipped::escape baseline comparison skipped, toolchain differs (%s); regenerate the baseline with the CI toolchain\n", why)
		}
	} else {
		failures = append(failures, diffReports(baseline, current)...)
	}

	if len(failures) == 0 {
		fmt.Fprintf(stdout, "bgpescape: OK — no new escapes, no lost inlining, ingest codec roots escape-free\n")
		return 0
	}
	fmt.Fprintf(stdout, "bgpescape: %d budget violation(s) vs %s:\n", len(failures), *basePath)
	for _, f := range failures {
		fmt.Fprintf(stdout, "  FAIL %s\n", f)
	}
	fmt.Fprintf(stdout, "bgpescape: if intentional, regenerate with `make escape-baseline` and review the diff like code\n")
	return 1
}

// codecEscapes enforces rule 3: the codecRoots must have zero escape
// sites.
func codecEscapes(rep *Report) []string {
	var failures []string
	for _, p := range rep.Packages {
		roots := toSet(codecRoots[p.ImportPath])
		for _, e := range p.Escapes {
			if roots[e.Func] {
				failures = append(failures, fmt.Sprintf("%s: per-event codec root %s escapes: %s (%s)",
					p.ImportPath, e.Func, e.Message, e.File))
			}
		}
	}
	return failures
}

// diffReports enforces rules 1 and 2: no escape multiset growth, no
// inlinable function turning non-inlinable.
func diffReports(baseline, current *Report) []string {
	basePkgs := make(map[string]*Package, len(baseline.Packages))
	for i := range baseline.Packages {
		basePkgs[baseline.Packages[i].ImportPath] = &baseline.Packages[i]
	}
	var failures []string
	for i := range current.Packages {
		cur := &current.Packages[i]
		base, known := basePkgs[cur.ImportPath]
		if !known {
			base = &Package{} // new package: every site is new
		}
		baseCounts := make(map[string]int, len(base.Escapes))
		for _, e := range base.Escapes {
			baseCounts[e.key()] = e.Count
		}
		for _, e := range cur.Escapes {
			if grew := e.Count - baseCounts[e.key()]; grew > 0 {
				failures = append(failures, fmt.Sprintf("%s: new heap escape ×%d in %s: %s (%s)",
					cur.ImportPath, grew, e.Func, e.Message, e.File))
			}
		}
		stillInlinable := toSet(cur.Inlinable)
		wasInlinable := toSet(base.Inlinable)
		for _, fn := range cur.NotInlinable {
			if wasInlinable[fn] && !stillInlinable[fn] {
				failures = append(failures, fmt.Sprintf("%s: %s lost inlining (was inlinable in the baseline)",
					cur.ImportPath, fn))
			}
		}
	}
	return failures
}

func toSet(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func readReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readReport(f)
}
