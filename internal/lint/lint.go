// Package lint is the registry of bgplint's determinism,
// parallel-safety, concurrency-invariant, and hot-path performance
// analyzers. cmd/bgplint runs them all; see each analyzer package for
// the invariant it encodes and DESIGN.md ("Determinism invariants",
// "Concurrency invariants", "Hot-path invariants") for why the
// invariants exist.
package lint

import (
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/atomicpub"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/commitseq"
	"repro/internal/lint/detrand"
	"repro/internal/lint/errcode"
	"repro/internal/lint/frozen"
	"repro/internal/lint/idkind"
	"repro/internal/lint/latebind"
	"repro/internal/lint/lockguard"
	"repro/internal/lint/maporder"
	"repro/internal/lint/seedtaint"
	"repro/internal/lint/sharedfold"
)

// ToolVersion labels SARIF output and the -V line; it is the single
// place the suite version is spelled. Bump alongside analyzer
// additions and removals: 2.0 = determinism suite, 3.0 = concurrency suite,
// 4.0 = hot-path performance suite (hotpath, latebind, warn tier),
// 5.0 = hotpath deleted: cmd/bgpescape's compiler-escape gate covers
// the allocations it flagged.
const ToolVersion = "5.0"

// Severity tiers. SevError and SevWarn findings both fail a run; the
// tier labels SARIF results and baseline entries (a warning marks a
// perf smell, an error a determinism or concurrency bug). SevNote
// analyzers exist only for their facts and never report.
const (
	SevError = "error"
	SevWarn  = "warning"
	SevNote  = "note"
)

// Analyzers returns the full bgplint suite, in stable order.
// callgraph is a fact-only pass (it never reports) that the
// interprocedural analyzers consume for propagation.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicpub.Analyzer,
		callgraph.Analyzer,
		commitseq.Analyzer,
		detrand.Analyzer,
		errcode.Analyzer,
		frozen.Analyzer,
		idkind.Analyzer,
		latebind.Analyzer,
		lockguard.Analyzer,
		maporder.Analyzer,
		seedtaint.Analyzer,
		sharedfold.Analyzer,
	}
}

// Severity maps an analyzer name to its reporting tier. Unknown names
// default to SevWarn.
func Severity(analyzer string) string {
	switch analyzer {
	case detrand.Analyzer.Name,
		maporder.Analyzer.Name,
		sharedfold.Analyzer.Name,
		seedtaint.Analyzer.Name,
		errcode.Analyzer.Name,
		lockguard.Analyzer.Name,
		frozen.Analyzer.Name,
		atomicpub.Analyzer.Name,
		commitseq.Analyzer.Name:
		return SevError
	case idkind.Analyzer.Name,
		latebind.Analyzer.Name:
		return SevWarn
	case callgraph.Analyzer.Name:
		return SevNote
	}
	return SevWarn
}

// Failing reports whether a fresh finding of the given severity fails
// the run. Errors and warnings fail; notes never fail (and never
// report in practice).
func Failing(severity string) bool {
	return severity == SevError || severity == SevWarn
}

// A RuleMeta describes one analyzer for rule tables (SARIF, usage
// text, README drift tests): its registry name, severity tier, and the
// first line of its Doc.
type RuleMeta struct {
	Name     string
	Severity string
	Summary  string
}

// Rules returns one RuleMeta per registered analyzer, in registry
// order, so every rule table in the tool is derived from the same
// registry and cannot drift from it.
func Rules() []RuleMeta {
	analyzers := Analyzers()
	rules := make([]RuleMeta, 0, len(analyzers))
	for _, a := range analyzers {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		rules = append(rules, RuleMeta{Name: a.Name, Severity: Severity(a.Name), Summary: doc})
	}
	return rules
}
