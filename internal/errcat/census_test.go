package errcat_test

import (
	"sort"
	"testing"

	"repro/internal/errcat"
	"repro/internal/raslog"
)

// TestIntrepidCensus pins the Intrepid catalog to the population
// DESIGN.md documents: 82 FATAL ERRCODE types across 6 components —
// 74 system-failure types (including the two non-interrupting "false
// fatal" alarms) and 8 application-error types — with roughly 75% of
// weighted fatal volume reporting from the KERNEL component. The
// errcode analyzer links this catalog as analysis-time ground truth,
// so drift here silently changes what the linter enforces; this test
// makes any drift a visible decision.
func TestIntrepidCensus(t *testing.T) {
	c := errcat.Intrepid()

	if got := c.Len(); got != 82 {
		t.Errorf("catalog has %d codes, want 82", got)
	}
	if got := len(c.ByClass(errcat.ClassSystem)); got != 74 {
		t.Errorf("system-failure types = %d, want 74", got)
	}
	if got := len(c.ByClass(errcat.ClassApplication)); got != 8 {
		t.Errorf("application-error types = %d, want 8", got)
	}

	wantComponents := map[raslog.Component]int{
		raslog.CompKernel:    47,
		raslog.CompMC:        10,
		raslog.CompMMCS:      10,
		raslog.CompCard:      10,
		raslog.CompBareMetal: 3,
		raslog.CompDiags:     2,
	}
	gotComponents := make(map[raslog.Component]int)
	for _, code := range c.All() {
		gotComponents[code.Component]++
	}
	if len(gotComponents) != len(wantComponents) {
		t.Errorf("catalog spans %d components, want %d", len(gotComponents), len(wantComponents))
	}
	for comp, want := range wantComponents {
		if got := gotComponents[comp]; got != want {
			t.Errorf("component %v has %d codes, want %d", comp, got, want)
		}
	}

	// Exactly the two false-fatal alarms are non-interrupting.
	nonInt := c.Interrupting(false)
	if len(nonInt) != 2 {
		t.Fatalf("non-interrupting types = %d, want 2", len(nonInt))
	}
	seen := map[string]bool{}
	for _, code := range nonInt {
		seen[code.Name] = true
		if code.Class != errcat.ClassSystem {
			t.Errorf("false fatal %s has class %v, want system", code.Name, code.Class)
		}
	}
	if !seen[errcat.CodeBulkPower] || !seen[errcat.CodeTorusSum] {
		t.Errorf("non-interrupting set = %v, want {%s, %s}", seen, errcat.CodeBulkPower, errcat.CodeTorusSum)
	}

	// Names are unique and every name round-trips through Lookup.
	names := map[string]bool{}
	for _, code := range c.All() {
		if names[code.Name] {
			t.Errorf("duplicate ERRCODE name %q", code.Name)
		}
		names[code.Name] = true
		got, ok := c.Lookup(code.Name)
		if !ok || got.Name != code.Name {
			t.Errorf("Lookup(%q) = (%v, %v), want the code itself", code.Name, got.Name, ok)
		}
	}

	// KERNEL carries ~75% of weighted fatal volume (the paper's
	// observation the weights are tuned to).
	share := errcat.ComponentShare(c)
	if k := share[raslog.CompKernel]; k < 0.70 || k > 0.85 {
		t.Errorf("KERNEL weight share = %.4f, want ~0.75 (0.70..0.85)", k)
	}
	comps := make([]raslog.Component, 0, len(share))
	for comp := range share {
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
	total := 0.0
	for _, comp := range comps {
		total += share[comp]
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("component shares sum to %.6f, want 1", total)
	}
}
