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
		parallelism = fs.Int("parallelism", 0, "worker bound for the chunked log decode (0 = GOMAXPROCS, 1 = sequential)")
		memBudget   = fs.Int64("mem-budget", 0, "bound the in-memory FATAL event payload to this many bytes (encoded line bytes): noise records are counted at decode and never spooled, FATAL records spill to sorted segment runs on disk and merge back; output is byte-identical to the unconstrained run (0 = analyze fully in memory)")
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

	var rep *repro.Report
	var err error
	if *memBudget > 0 {
		rep, err = runMembound(*memBudget, *spillDir, *rasP, *jobP, *parallelism, stderr)
	} else {
		cfg := repro.DefaultConfig(0)
		cfg.Parallelism = *parallelism
		rep, err = loadPair(cfg, *rasP, *jobP)
	}
	if err != nil {
		return err
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
		rep, err := loadPair(cfg, rp, jp)
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

func loadPair(cfg repro.Config, rasP, jobP string) (*repro.Report, error) {
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
	return repro.Load(cfg, rf, jf)
}

func keys() string {
	out := make([]string, 0, len(artifacts))
	for k := range artifacts {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}
