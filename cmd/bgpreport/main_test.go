package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/simulate"
)

func TestRunSummaryOnly(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-days", "14", "-summary"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Paper vs measured") {
		t.Error("missing summary header")
	}
	if strings.Contains(s, "Table I:") {
		t.Error("-summary still rendered artifacts")
	}
	for _, want := range []string{"same-location resubmissions", "Weibull shape", "Obs 11"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestRunFullReport(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-days", "14"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Table I:", "Figure 7:", "Paper vs measured"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunQuickFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	// -quick overrides -days with the quick configuration; it must still
	// complete and include the summary.
	if err := run([]string{"-quick", "-summary", "-seed", "2"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "measured:") {
		t.Error("missing measured values")
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-days", "x"}, &out, &errOut); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-days", "0", "-summary"}, &out, &errOut); err == nil {
		t.Error("zero days accepted")
	}
	if err := run([]string{"-ras", "only.log", "-summary"}, &out, &errOut); err == nil {
		t.Error("-ras without -job accepted")
	}
}

// writeCampaignLogs simulates a campaign and writes its RAS and job logs
// into a test temp dir, returning the two paths.
func writeCampaignLogs(t *testing.T, cfg simulate.Config) (rasP, jobP string) {
	t.Helper()
	camp, err := simulate.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rasP = filepath.Join(dir, "ras.log")
	jobP = filepath.Join(dir, "job.log")
	rf, err := os.Create(rasP)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := os.Create(jobP)
	if err != nil {
		t.Fatal(err)
	}
	if err := camp.WriteLogs(rf, jf); err != nil {
		t.Fatal(err)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	return rasP, jobP
}

// TestRunExternalLogs exercises the -ras/-job path: write a small
// campaign's logs to disk, analyze the files through the streaming
// loader, and check the analysis matches the simulated campaign's.
func TestRunExternalLogs(t *testing.T) {
	// Same knobs run's "-days 14 -seed 3" resolves to, so the two
	// summaries must match byte for byte.
	rasP, jobP := writeCampaignLogs(t, simulate.Config{Seed: 3, Days: 14, NoisePerFatal: 62})

	var fromSim, fromLogs, errOut bytes.Buffer
	if err := run([]string{"-days", "14", "-seed", "3", "-summary"}, &fromSim, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ras", rasP, "-job", jobP, "-summary"}, &fromLogs, &errOut); err != nil {
		t.Fatal(err)
	}
	// The simulated and file-loaded analyses see the same campaign, so
	// record/job counts and filter results must agree line for line.
	simLines := strings.Split(fromSim.String(), "\n")
	logLines := strings.Split(fromLogs.String(), "\n")
	if len(simLines) != len(logLines) {
		t.Fatalf("summary length differs: %d vs %d lines", len(simLines), len(logLines))
	}
	for i := range simLines {
		if simLines[i] != logLines[i] {
			t.Errorf("summary line %d differs:\n sim: %s\nlogs: %s", i+1, simLines[i], logLines[i])
		}
	}
}

func TestRunPolicyFlag(t *testing.T) {
	var def, ff, errOut bytes.Buffer
	if err := run([]string{"-days", "14", "-summary"}, &def, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-days", "14", "-summary", "-policy", "first-fit"}, &ff, &errOut); err != nil {
		t.Fatal(err)
	}
	if def.String() == ff.String() {
		t.Error("first-fit summary identical to the default policy")
	}
	var out bytes.Buffer
	if err := run([]string{"-days", "14", "-policy", "bogus"}, &out, &errOut); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunPolicyMatrix(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-days", "14", "-policy-matrix"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Policy matrix:") {
		t.Error("missing comparison table")
	}
	for _, name := range sched.PolicyNames() {
		if !strings.Contains(s, "=== policy "+name+" ===") {
			t.Errorf("missing per-policy fragment for %s", name)
		}
	}
	var errBuf bytes.Buffer
	if err := run([]string{"-policy-matrix", "-policy", "random"}, &out, &errBuf); err == nil {
		t.Error("-policy with -policy-matrix accepted")
	}
	if err := run([]string{"-policy-matrix", "-ras", "x", "-job", "y"}, &out, &errBuf); err == nil {
		t.Error("-policy-matrix with external logs accepted")
	}
}
