package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/sched"
)

func TestRunWritesAnalyzableLogs(t *testing.T) {
	dir := t.TempDir()
	rasP := filepath.Join(dir, "ras.log")
	jobP := filepath.Join(dir, "job.log")
	var stderr strings.Builder
	err := run([]string{"-seed", "3", "-days", "10", "-noise", "1",
		"-ras", rasP, "-job", jobP}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "wrote") {
		t.Errorf("missing summary line: %q", stderr.String())
	}
	// The produced files must round-trip through the public loader.
	rf, err := os.Open(rasP)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	jf, err := os.Open(jobP)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	rep, err := repro.Load(repro.DefaultConfig(0), rf, jf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs().Len() == 0 || rep.Summary().TotalRecords == 0 {
		t.Error("loaded empty logs")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stderr strings.Builder
	if err := run([]string{"-days", "abc"}, &stderr); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-days", "0"}, &stderr); err == nil {
		t.Error("zero days accepted")
	}
}

func TestRunFailsOnUnwritablePath(t *testing.T) {
	var stderr strings.Builder
	err := run([]string{"-days", "7", "-noise", "0",
		"-ras", "/nonexistent-dir/ras.log", "-job", "/nonexistent-dir/job.log"}, &stderr)
	if err == nil {
		t.Error("unwritable path accepted")
	}
}

func TestPoliciesFlagListsRegistry(t *testing.T) {
	var stderr strings.Builder
	if err := run([]string{"-policies"}, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, name := range sched.PolicyNames() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("-policies output missing %q: %q", name, stderr.String())
		}
	}
}

func TestPolicyFlagSelectsPolicy(t *testing.T) {
	dir := t.TempDir()
	rasP := filepath.Join(dir, "ras.log")
	jobP := filepath.Join(dir, "job.log")
	var stderr strings.Builder
	if err := run([]string{"-seed", "3", "-days", "10", "-noise", "1",
		"-policy", "first-fit", "-ras", rasP, "-job", jobP}, &stderr); err != nil {
		t.Fatal(err)
	}
	// Explicit default is byte-identical to the implicit default; a
	// counterfactual policy is not.
	rasDef := filepath.Join(dir, "ras.def.log")
	jobDef := filepath.Join(dir, "job.def.log")
	if err := run([]string{"-seed", "3", "-days", "10", "-noise", "1",
		"-ras", rasDef, "-job", jobDef}, &stderr); err != nil {
		t.Fatal(err)
	}
	rasExp := filepath.Join(dir, "ras.exp.log")
	jobExp := filepath.Join(dir, "job.exp.log")
	if err := run([]string{"-seed", "3", "-days", "10", "-noise", "1",
		"-policy", sched.DefaultPolicy, "-ras", rasExp, "-job", jobExp}, &stderr); err != nil {
		t.Fatal(err)
	}
	def, err := os.ReadFile(rasDef)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := os.ReadFile(rasExp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(def, exp) {
		t.Error("-policy=" + sched.DefaultPolicy + " diverges from the implicit default")
	}
	ff, err := os.ReadFile(rasP)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(def, ff) {
		t.Error("first-fit produced the identical RAS log as the default policy")
	}

	if err := run([]string{"-policy", "no-such-policy", "-days", "5",
		"-ras", filepath.Join(dir, "x.log"), "-job", filepath.Join(dir, "y.log")}, &stderr); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPolicyMatrixWritesPerPolicyPairs(t *testing.T) {
	dir := t.TempDir()
	rasP := filepath.Join(dir, "ras.log")
	jobP := filepath.Join(dir, "job.log")
	var stderr strings.Builder
	if err := run([]string{"-seed", "4", "-days", "10", "-noise", "0.5",
		"-policy-matrix", "-ras", rasP, "-job", jobP}, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, name := range sched.PolicyNames() {
		rp := withPolicy(rasP, name)
		jp := withPolicy(jobP, name)
		if fi, err := os.Stat(rp); err != nil || fi.Size() == 0 {
			t.Errorf("policy %s: missing or empty %s", name, rp)
		}
		if fi, err := os.Stat(jp); err != nil || fi.Size() == 0 {
			t.Errorf("policy %s: missing or empty %s", name, jp)
		}
	}
	if err := run([]string{"-policy-matrix", "-policy", "random",
		"-ras", rasP, "-job", jobP}, &stderr); err == nil {
		t.Error("-policy with -policy-matrix accepted")
	}
}
