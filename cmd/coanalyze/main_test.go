package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/simulate"
)

// writeFixtureLogs produces small log files once per test binary.
func writeFixtureLogs(t *testing.T) (rasP, jobP string) {
	return writeLogs(t, 1)
}

// writeLogs writes the fixture campaign with noise non-FATAL records
// per FATAL one.
func writeLogs(t *testing.T, noise float64) (rasP, jobP string) {
	t.Helper()
	dir := t.TempDir()
	rasP = filepath.Join(dir, "ras.log")
	jobP = filepath.Join(dir, "job.log")
	camp, err := simulate.Run(simulate.Config{Seed: 5, Days: 10, NoisePerFatal: noise})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := os.Create(rasP)
	if err != nil {
		t.Fatal(err)
	}
	rw := raslog.NewWriter(rf)
	for _, rec := range camp.RAS.All() {
		if err := rw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	jf, err := os.Create(jobP)
	if err != nil {
		t.Fatal(err)
	}
	jw := joblog.NewWriter(jf)
	for _, j := range camp.Jobs.All() {
		if err := jw.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	jf.Close()
	return rasP, jobP
}

func TestRunSingleArtifact(t *testing.T) {
	rasP, jobP := writeFixtureLogs(t)
	var out, errOut bytes.Buffer
	if err := run([]string{"-ras", rasP, "-job", jobP, "-artifact", "t6"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table VI") {
		t.Errorf("missing Table VI in output")
	}
	if strings.Contains(out.String(), "Table IV") {
		t.Errorf("unrequested artifact rendered")
	}
}

func TestRunAllArtifacts(t *testing.T) {
	rasP, jobP := writeFixtureLogs(t)
	var out, errOut bytes.Buffer
	if err := run([]string{"-ras", rasP, "-job", jobP}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table I:", "Table VI:", "Figure 7:", "Extension:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("all-artifacts output missing %q", want)
		}
	}
}

// TestRunUnknownArtifact checks that a bad -artifact is rejected before
// any log is read: under -mem-budget nothing is spooled, and a missing
// -ras still reports the artifact, not the file.
func TestRunUnknownArtifact(t *testing.T) {
	rasP, jobP := writeFixtureLogs(t)
	spill := filepath.Join(t.TempDir(), "spill")
	for _, args := range [][]string{
		{"-ras", rasP, "-job", jobP},
		{"-ras", rasP, "-job", jobP, "-mem-budget", "4096", "-spill-dir", spill},
		{"-ras", filepath.Join(t.TempDir(), "no-such.log"), "-job", jobP},
	} {
		var out, errOut bytes.Buffer
		err := run(append(args, "-artifact", "bogus"), &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), "unknown artifact") {
			t.Errorf("%v: err = %v", args, err)
		}
	}
	if ents, err := os.ReadDir(spill); err == nil && len(ents) > 0 {
		t.Errorf("spill dir holds %d entries after a rejected -artifact", len(ents))
	} else if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
}

func TestRunMissingFiles(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-ras", "/no/such.log", "-job", "/no/such2.log"}, &out, &errOut); err == nil {
		t.Error("missing files accepted")
	}
}

func TestKeysSortedAndComplete(t *testing.T) {
	ks := keys()
	if !strings.Contains(ks, "t4") || !strings.Contains(ks, "predict") {
		t.Errorf("keys = %q", ks)
	}
	parts := strings.Split(ks, ", ")
	if len(parts) != len(artifacts) {
		t.Errorf("keys lists %d, artifacts has %d", len(parts), len(artifacts))
	}
	for i := 1; i < len(parts); i++ {
		if parts[i-1] >= parts[i] {
			t.Errorf("keys not sorted at %q >= %q", parts[i-1], parts[i])
		}
	}
}

func TestRunPolicyMatrixComparison(t *testing.T) {
	dir := t.TempDir()
	rasP := filepath.Join(dir, "ras.log")
	jobP := filepath.Join(dir, "job.log")
	runs, err := simulate.RunMatrix(simulate.Config{Seed: 5, Days: 10, NoisePerFatal: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		rf, err := os.Create(withPolicy(rasP, r.Policy))
		if err != nil {
			t.Fatal(err)
		}
		jf, err := os.Create(withPolicy(jobP, r.Policy))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Campaign.WriteLogs(rf, jf); err != nil {
			t.Fatal(err)
		}
		rf.Close()
		jf.Close()
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-ras", rasP, "-job", jobP, "-policy-matrix"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Policy matrix:") {
		t.Error("missing comparison table")
	}
	for _, r := range runs {
		if !strings.Contains(s, r.Policy) {
			t.Errorf("comparison missing policy %s", r.Policy)
		}
	}

	// Interruption outcomes must differ measurably across policies: the
	// Interruptions column cannot be a single repeated value.
	counts := map[string]bool{}
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 {
			for _, r := range runs {
				if f[0] == r.Policy {
					counts[f[2]] = true
				}
			}
		}
	}
	if len(counts) < 2 {
		t.Errorf("all policies show identical interruption counts:\n%s", s)
	}

	// No per-policy pairs next to the base paths -> a helpful error.
	empty := t.TempDir()
	if err := run([]string{"-ras", filepath.Join(empty, "ras.log"),
		"-job", filepath.Join(empty, "job.log"), "-policy-matrix"}, &out, &errOut); err == nil {
		t.Error("missing matrix logs accepted")
	}
}
