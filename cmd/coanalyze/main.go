// Command coanalyze runs the paper's co-analysis methodology over a
// RAS log and a job log (in this module's line formats, e.g. produced
// by bgpgen) and prints the requested artifacts.
//
// Usage:
//
//	coanalyze -ras ras.log -job job.log              # everything
//	coanalyze -ras ras.log -job job.log -artifact t4 # Table IV only
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro"
	"repro/internal/sched"
)

// artifacts is the registry shared with the serving layer; see
// repro.Artifacts.
var artifacts = repro.Artifacts()

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "coanalyze:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("coanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rasP        = fs.String("ras", "ras.log", "RAS log path")
		jobP        = fs.String("job", "job.log", "job log path")
		artifact    = fs.String("artifact", "all", "artifact to print: all, or one of "+keys())
		parallelism = fs.Int("parallelism", 0, "worker bound for each chunked log decode (the job log decodes beside the RAS log, so up to twice this many run at once) and for the artifact render (0 = GOMAXPROCS, 1 = sequential)")
		memBudget   = fs.Int64("mem-budget", 0, "bound the in-memory FATAL event payload to this many bytes (encoded line bytes): the sorted FATAL run the analysis merges spills to segment files on disk instead of staying resident; noise records are counted at decode and never spooled; output is byte-identical to the unconstrained run (0 = keep the run in memory)")
		spillDir    = fs.String("spill-dir", "", "directory for -mem-budget segment runs (empty = a temp dir, removed on exit)")
		matrix      = fs.Bool("policy-matrix", false, "co-analyze the per-policy log pairs a bgpgen -policy-matrix run wrote next to -ras/-job (ras.<policy>.log) and print the cross-policy comparison")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *matrix {
		return runPolicyMatrix(*rasP, *jobP, *parallelism, stdout)
	}
	// Resolve the artifact before any log is opened, so a bad name
	// fails fast instead of after a full decode (and spool).
	render := (*repro.Report).RenderAll
	if *artifact != "all" {
		r, ok := artifacts[*artifact]
		if !ok {
			return fmt.Errorf("unknown artifact %q; want all or one of %s", *artifact, keys())
		}
		render = r
	}

	// -mem-budget only bounds the spool that keeps the sorted FATAL
	// run: without it the run stays in memory and no directory is
	// touched; with it the run spills to segment files under dir.
	dir := *spillDir
	if *memBudget > 0 {
		if dir == "" {
			tmp, err := os.MkdirTemp("", "coanalyze-spill-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	cfg := repro.DefaultConfig(0)
	cfg.Parallelism = *parallelism
	rep, err := loadPair(cfg, *memBudget, dir, *rasP, *jobP)
	if err != nil {
		return err
	}
	defer rep.Close()
	if *memBudget > 0 {
		ss, ms := rep.RunStats()
		fmt.Fprintf(stderr, "coanalyze: mem-budget %d: rows=%d runs=%d budget_flushes=%d spilled_bytes=%d\n",
			*memBudget, ss.Rows, ss.Runs, ss.Flushes, ss.SpilledBytes)
		fmt.Fprintf(stderr, "coanalyze: merge: segments=%d zone_skipped=%d scanned=%d fatal_rows=%d\n",
			ms.Segments, ms.Skipped, ms.Scanned, ms.Rows)
	}
	return render(rep, stdout)
}

// runPolicyMatrix loads every per-policy log pair found next to the
// base paths (as written by bgpgen -policy-matrix: ras.log ->
// ras.<policy>.log), co-analyzes each, and prints the cross-policy
// comparison. The oracle-only idle-fault column is zero here: external
// logs carry no ground truth.
func runPolicyMatrix(rasP, jobP string, parallelism int, stdout io.Writer) error {
	cfg := repro.DefaultConfig(0)
	cfg.Parallelism = parallelism
	var outs []repro.PolicyOutcome
	for _, name := range sched.PolicyNames() {
		rp, jp := withPolicy(rasP, name), withPolicy(jobP, name)
		if _, err := os.Stat(rp); os.IsNotExist(err) {
			continue
		}
		rep, err := loadPair(cfg, 0, "", rp, jp)
		if err != nil {
			return fmt.Errorf("policy %s: %w", name, err)
		}
		outs = append(outs, repro.PolicyOutcome{Policy: name, Report: rep, Stats: rep.PolicyStats()})
	}
	if len(outs) == 0 {
		return fmt.Errorf("no per-policy log pairs found next to %s (expected e.g. %s; run bgpgen -policy-matrix first)",
			rasP, withPolicy(rasP, sched.DefaultPolicy))
	}
	return repro.RenderPolicyComparison(stdout, outs)
}

// withPolicy splices a policy name into a log path before its
// extension, mirroring bgpgen -policy-matrix output naming.
func withPolicy(path, policy string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + policy + ext
}

func loadPair(cfg repro.Config, budget int64, spillDir, rasP, jobP string) (*repro.Report, error) {
	rf, err := os.Open(rasP)
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	jf, err := os.Open(jobP)
	if err != nil {
		return nil, err
	}
	defer jf.Close()
	return repro.LoadBounded(cfg, budget, spillDir, rf, jf)
}

func keys() string {
	out := make([]string, 0, len(artifacts))
	for k := range artifacts {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}
