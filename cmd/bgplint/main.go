// Command bgplint is the multichecker for this repo's determinism,
// parallel-safety, concurrency, and hot-path performance invariants:
// the atomicpub, callgraph, commitseq, detrand, errcode, frozen,
// idkind, latebind, lockguard, maporder, seedtaint and sharedfold
// analyzers (see internal/lint and DESIGN.md "Determinism
// invariants" / "Concurrency invariants" / "Hot-path invariants").
//
// Standalone:
//
//	bgplint ./...
//
// loads the named packages (compiling dependency export data through
// the ordinary build cache) and prints one line per finding,
// vet-style. Exit status follows the CI contract: 0 clean, 1 failing
// findings (after baseline suppression), 2 tool or load failure.
// Every finding fails, warn tier (latebind, idkind) included; the
// tier only labels SARIF results and baseline entries. Test files are
// not scanned in this mode.
//
// Reports and gating:
//
//	bgplint -sarif bgplint.sarif ./...           # SARIF 2.1.0 artifact
//	bgplint -write-baseline lint.baseline.json ./...
//	bgplint -baseline lint.baseline.json ./...   # fail only on NEW findings
//
// Baselines store line-independent fingerprints (see
// internal/lint/baseline), so unrelated edits never churn them; a
// SARIF report written alongside a baseline marks each result's
// baselineState as "new" or "unchanged".
//
// As a vet tool:
//
//	go build -o bin/bgplint ./cmd/bgplint
//	go vet -vettool=$(pwd)/bin/bgplint ./...
//
// runs the same analyzers under the go command's vet protocol, which
// also covers test packages and caches results per package; the same
// 0/1/2 exit contract applies per unit (go vet surfaces any nonzero
// status as a vet failure).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/baseline"
	"repro/internal/lint/driver"
	"repro/internal/lint/sarif"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout *os.File) int {
	fs := flag.NewFlagSet("bgplint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	versionFlag := fs.String("V", "", "print version and exit (vet protocol)")
	flagsFlag := fs.Bool("flags", false, "print the tool's flags as JSON and exit (vet protocol)")
	sarifFlag := fs.String("sarif", "", "write a SARIF 2.1.0 report to `file` (standalone mode)")
	baselineFlag := fs.String("baseline", "", "suppress findings fingerprinted in baseline `file`; exit 1 only on new findings")
	writeBaselineFlag := fs.String("write-baseline", "", "write all current findings to baseline `file` and exit 0")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bgplint [-sarif file] [-baseline file | -write-baseline file] [packages]\n       go vet -vettool=$(which bgplint) [packages]\n\nAnalyzers:\n")
		for _, r := range lint.Rules() {
			fmt.Fprintf(os.Stderr, "  %-12s [%-7s] %s\n", r.Name, r.Severity, r.Summary)
		}
	}
	if err := fs.Parse(args); err != nil {
		return driver.ExitFailure
	}

	if *versionFlag != "" {
		if err := driver.PrintVersion(stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return driver.ExitFailure
		}
		return driver.ExitClean
	}
	if *flagsFlag {
		if err := driver.PrintFlags(stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return driver.ExitFailure
		}
		return driver.ExitClean
	}

	analyzers := lint.Analyzers()

	// Vet protocol: a single *.cfg argument names a unit of work.
	if rest := fs.Args(); len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return driver.RunVetUnit(rest[0], analyzers, os.Stderr)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := driver.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgplint:", err)
		return driver.ExitFailure
	}
	findings, err := driver.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgplint:", err)
		return driver.ExitFailure
	}

	rel := relTo(".")
	fps := baseline.Fingerprints(findings, rel)

	if *writeBaselineFlag != "" {
		bl := baseline.FromFindings(findings, fps, rel, lint.Severity)
		if err := bl.WriteFile(*writeBaselineFlag); err != nil {
			fmt.Fprintln(os.Stderr, "bgplint:", err)
			return driver.ExitFailure
		}
		fmt.Fprintf(os.Stderr, "bgplint: wrote %d finding(s) to %s\n", len(findings), *writeBaselineFlag)
		return driver.ExitClean
	}

	// suppressed[i] means finding i is fingerprinted in the baseline;
	// states feed the SARIF baselineState field.
	suppressed := make([]bool, len(findings))
	states := make([]string, len(findings))
	if *baselineFlag != "" {
		bl, err := baseline.Load(*baselineFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bgplint:", err)
			return driver.ExitFailure
		}
		suppressed = bl.Suppressed(fps)
		for i, s := range suppressed {
			if s {
				states[i] = "unchanged"
			} else {
				states[i] = "new"
			}
		}
	}

	if *sarifFlag != "" {
		if err := writeSARIF(*sarifFlag, analyzersRules(analyzers), findings, fps, states, rel); err != nil {
			fmt.Fprintln(os.Stderr, "bgplint:", err)
			return driver.ExitFailure
		}
	}

	// Every fresh finding prints; a failing-tier one (error or warning)
	// fails the run.
	fresh, failing := 0, 0
	for i, f := range findings {
		if suppressed[i] {
			continue
		}
		fresh++
		fmt.Fprintf(stdout, "%s: %s\n", f.Pos, f.Message)
		if lint.Failing(lint.Severity(f.Analyzer)) {
			failing++
		}
	}
	if n := len(findings) - fresh; n > 0 {
		fmt.Fprintf(os.Stderr, "bgplint: %d finding(s) suppressed by baseline %s\n", n, *baselineFlag)
	}
	if failing > 0 {
		return driver.ExitFindings
	}
	return driver.ExitClean
}

// relTo returns a function mapping absolute source filenames to paths
// relative to dir, slash-separated, so fingerprints and SARIF URIs are
// stable across checkouts. Paths outside dir pass through unchanged.
func relTo(dir string) func(string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	return func(name string) string {
		if r, err := filepath.Rel(abs, name); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return filepath.ToSlash(name)
	}
}

// analyzersRules builds the SARIF rule table from the registry's rule
// metadata: one entry per analyzer, documented by the first line of
// its Doc and its severity tier.
func analyzersRules(analyzers []*analysis.Analyzer) []sarif.Rule {
	metas := lint.Rules()
	rules := make([]sarif.Rule, 0, len(metas))
	for _, m := range metas {
		rules = append(rules, sarif.Rule{
			ID:               m.Name,
			ShortDescription: sarif.Message{Text: m.Summary},
			DefaultConfig:    &sarif.RuleConfig{Level: m.Severity},
		})
	}
	return rules
}

// writeSARIF renders every finding — including baselined ones, with
// their baselineState — so the artifact is a complete inventory.
func writeSARIF(path string, rules []sarif.Rule, findings []driver.Finding, fps, states []string, rel func(string) string) error {
	infos := make([]sarif.FindingInfo, 0, len(findings))
	for i, f := range findings {
		infos = append(infos, sarif.FindingInfo{
			RuleID:        f.Analyzer,
			Level:         lint.Severity(f.Analyzer),
			Message:       f.Message,
			URI:           rel(f.Pos.Filename),
			Line:          f.Pos.Line,
			Column:        f.Pos.Column,
			Fingerprint:   fps[i],
			BaselineState: states[i],
		})
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := sarif.Build(lint.ToolVersion, rules, infos).Encode(out); err != nil {
		return err
	}
	return out.Close()
}
