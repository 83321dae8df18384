package lint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/sarif"
)

// TestRegistry pins the analyzer suite's shape: twelve analyzers in
// stable alphabetical order, each with a name, a one-line doc summary,
// and a severity in one of the three tiers. A new analyzer that forgets
// a Severity case lands in SevWarn by design (never silently a gate),
// but it must still be deliberate — so the tier sets are spelled out
// here and drift fails loudly.
func TestRegistry(t *testing.T) {
	analyzers := lint.Analyzers()
	if len(analyzers) != 12 {
		t.Fatalf("registry has %d analyzers, want 12", len(analyzers))
	}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %q has empty Name or Doc", a.Name)
		}
		names = append(names, a.Name)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("registry not in alphabetical order: %v", names)
	}

	wantTier := map[string]string{
		"atomicpub": lint.SevError, "commitseq": lint.SevError,
		"detrand": lint.SevError, "errcode": lint.SevError,
		"frozen": lint.SevError, "lockguard": lint.SevError,
		"maporder": lint.SevError, "seedtaint": lint.SevError,
		"sharedfold": lint.SevError,
		"idkind":     lint.SevWarn, "latebind": lint.SevWarn,
		"callgraph": lint.SevNote,
	}
	for _, n := range names {
		if got, want := lint.Severity(n), wantTier[n]; got != want {
			t.Errorf("Severity(%q) = %q, want %q", n, got, want)
		}
	}
	// Unknown analyzers default to warning, never to a gate.
	if got := lint.Severity("no-such-analyzer"); got != lint.SevWarn {
		t.Errorf("Severity(unknown) = %q, want %q", got, lint.SevWarn)
	}
}

// TestFailing is the exit-contract truth table: errors and warnings
// fail, notes never fail.
func TestFailing(t *testing.T) {
	cases := []struct {
		sev  string
		want bool
	}{
		{lint.SevError, true},
		{lint.SevWarn, true},
		{lint.SevNote, false},
	}
	for _, c := range cases {
		if got := lint.Failing(c.sev); got != c.want {
			t.Errorf("Failing(%q) = %v, want %v", c.sev, got, c.want)
		}
	}
}

// TestRulesMatchRegistry checks that the shared rule metadata — the
// source of the SARIF rule table, the usage text, and the README table
// — has exactly one entry per registered analyzer, in registry order,
// with a non-empty summary and the registry's severity.
func TestRulesMatchRegistry(t *testing.T) {
	analyzers := lint.Analyzers()
	rules := lint.Rules()
	if len(rules) != len(analyzers) {
		t.Fatalf("Rules() has %d entries, registry has %d", len(rules), len(analyzers))
	}
	for i, r := range rules {
		if r.Name != analyzers[i].Name {
			t.Errorf("rules[%d] = %q, want registry order %q", i, r.Name, analyzers[i].Name)
		}
		if r.Summary == "" {
			t.Errorf("rule %q has an empty summary", r.Name)
		}
		if strings.Contains(r.Summary, "\n") {
			t.Errorf("rule %q summary is not a single line: %q", r.Name, r.Summary)
		}
		if r.Severity != lint.Severity(r.Name) {
			t.Errorf("rule %q severity %q != Severity(%q) %q", r.Name, r.Severity, r.Name, lint.Severity(r.Name))
		}
	}
}

// TestSARIFRuleCount builds a SARIF report the way cmd/bgplint does —
// one sarif.Rule per Rules() entry — and asserts the emitted rule table
// matches the registry size with the registry's severity levels, so the
// artifact CI uploads can never under-report the suite.
func TestSARIFRuleCount(t *testing.T) {
	metas := lint.Rules()
	rules := make([]sarif.Rule, 0, len(metas))
	for _, m := range metas {
		rules = append(rules, sarif.Rule{
			ID:               m.Name,
			ShortDescription: sarif.Message{Text: m.Summary},
			DefaultConfig:    &sarif.RuleConfig{Level: m.Severity},
		})
	}
	var buf bytes.Buffer
	if err := sarif.Build(lint.ToolVersion, rules, nil).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got, want := strings.Count(out, `"id":`), len(lint.Analyzers()); got != want {
		t.Errorf("SARIF report carries %d rule ids, want %d (one per analyzer)", got, want)
	}
	for _, m := range metas {
		if !strings.Contains(out, `"id": "`+m.Name+`"`) && !strings.Contains(out, `"id":"`+m.Name+`"`) {
			t.Errorf("SARIF report has no rule entry for %q", m.Name)
		}
	}
	if !strings.Contains(out, lint.ToolVersion) {
		t.Errorf("SARIF report does not carry ToolVersion %s", lint.ToolVersion)
	}
}

// TestREADMETableMatchesRegistry keeps the README's analyzer table in
// lockstep with the registry: one `name` | severity row per analyzer,
// no rows for analyzers that no longer exist. callgraph's fact-only row
// is part of the table like any other.
func TestREADMETableMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	rowRe := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\| (error|warning|note) \\|")
	rows := make(map[string]string)
	for _, m := range rowRe.FindAllStringSubmatch(string(data), -1) {
		rows[m[1]] = m[2]
	}
	for _, r := range lint.Rules() {
		sev, ok := rows[r.Name]
		if !ok {
			t.Errorf("README analyzer table has no row for %q", r.Name)
			continue
		}
		if sev != r.Severity {
			t.Errorf("README lists %q as %s, registry says %s", r.Name, sev, r.Severity)
		}
		delete(rows, r.Name)
	}
	for name := range rows {
		t.Errorf("README analyzer table lists %q, which is not in the registry", name)
	}
}
