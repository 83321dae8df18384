package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/driver"
)

// copyFixture clones the named testdata fixture module (with any
// nested packages) into a temp dir the test may mutate.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	err = filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// runTool invokes the real entry point with stdout captured.
func runTool(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code := run(args, out)
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

// TestExitCodeContract walks the documented CI workflow end to end:
// findings exit 1; -write-baseline captures them and exits 0; a
// baselined rerun exits 0 and marks SARIF results "unchanged"; a new
// finding on top of the baseline exits 1 again; a missing baseline
// file is a tool failure (exit 2).
func TestExitCodeContract(t *testing.T) {
	dir := copyFixture(t, "modfixture")
	t.Chdir(dir)

	code, out := runTool(t, "./...")
	if code != driver.ExitFindings {
		t.Fatalf("bare run: exit %d, want %d (findings)\noutput:\n%s", code, driver.ExitFindings, out)
	}
	for _, rule := range []string{"seedtaint", "atomicpub"} {
		if !strings.Contains(out, rule) {
			t.Fatalf("bare run output does not mention %s:\n%s", rule, out)
		}
	}

	code, _ = runTool(t, "-write-baseline", "lint.baseline.json", "./...")
	if code != driver.ExitClean {
		t.Fatalf("-write-baseline: exit %d, want %d", code, driver.ExitClean)
	}
	if _, err := os.Stat("lint.baseline.json"); err != nil {
		t.Fatalf("baseline not written: %v", err)
	}

	code, out = runTool(t, "-baseline", "lint.baseline.json", "-sarif", "bgplint.sarif", "./...")
	if code != driver.ExitClean {
		t.Fatalf("baselined run: exit %d, want %d\noutput:\n%s", code, driver.ExitClean, out)
	}
	if strings.Contains(out, "seedtaint") {
		t.Fatalf("baselined run still prints suppressed finding:\n%s", out)
	}
	checkSARIF(t, "bgplint.sarif", "unchanged")

	extra := "package modfixture\n\nimport \"math/rand\"\n\nfunc AnotherBadSource() rand.Source { return rand.NewSource(7) }\n"
	if err := os.WriteFile("extra.go", []byte(extra), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = runTool(t, "-baseline", "lint.baseline.json", "./...")
	if code != driver.ExitFindings {
		t.Fatalf("new finding over baseline: exit %d, want %d\noutput:\n%s", code, driver.ExitFindings, out)
	}
	if !strings.Contains(out, "extra.go") {
		t.Fatalf("new finding not reported:\n%s", out)
	}

	// Fixing a baselined finding leaves a stale baseline entry; the
	// run must stay clean (exit 0), not fail on the leftover.
	if err := os.Remove("extra.go"); err != nil {
		t.Fatal(err)
	}
	clean := "package modfixture\n\nimport \"sync/atomic\"\n\ntype Published struct{ N int }\n\ntype Box struct{ cur atomic.Pointer[Published] }\n\nfunc (b *Box) BadPublish() {\n\tp := &Published{N: 1}\n\tb.cur.Store(p)\n}\n"
	if err := os.WriteFile("atomic.go", []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = runTool(t, "-baseline", "lint.baseline.json", "./...")
	if code != driver.ExitClean {
		t.Fatalf("fixed finding with stale baseline entry: exit %d, want %d\noutput:\n%s", code, driver.ExitClean, out)
	}

	code, _ = runTool(t, "-baseline", "no-such-file.json", "./...")
	if code != driver.ExitFailure {
		t.Fatalf("missing baseline: exit %d, want %d", code, driver.ExitFailure)
	}
}

// TestWarnTierExitContract walks the warn-tier workflow on a fixture
// whose only finding is an idkind warning: it prints and fails the run
// like an error, SARIF and a baseline record its severity tier, and a
// baselined run is clean again.
func TestWarnTierExitContract(t *testing.T) {
	dir := copyFixture(t, "warnfixture")
	t.Chdir(dir)

	code, out := runTool(t, "./rates")
	if code != driver.ExitFindings {
		t.Fatalf("warn-only run: exit %d, want %d (warnings fail)\noutput:\n%s", code, driver.ExitFindings, out)
	}
	if !strings.Contains(out, "midplane-keyed container with a rack index") || !strings.Contains(out, "idkind") {
		t.Fatalf("warn finding not printed:\n%s", out)
	}

	// The SARIF artifact carries the warning at its tier.
	code, _ = runTool(t, "-sarif", "warn.sarif", "./rates")
	if code != driver.ExitFindings {
		t.Fatalf("sarif run: exit %d, want %d", code, driver.ExitFindings)
	}
	sarifData, err := os.ReadFile("warn.sarif")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sarifData), `"level": "warning"`) && !strings.Contains(string(sarifData), `"level":"warning"`) {
		t.Errorf("SARIF result not tagged as warning:\n%s", sarifData)
	}

	// A baseline snapshot records the finding's severity tier...
	code, _ = runTool(t, "-write-baseline", "warn.baseline.json", "./rates")
	if code != driver.ExitClean {
		t.Fatalf("-write-baseline: exit %d, want %d", code, driver.ExitClean)
	}
	blData, err := os.ReadFile("warn.baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blData), `"warning"`) {
		t.Errorf("baseline entry carries no warning severity:\n%s", blData)
	}

	// ...and suppresses it: only NEW findings gate.
	code, out = runTool(t, "-baseline", "warn.baseline.json", "./rates")
	if code != driver.ExitClean {
		t.Fatalf("baselined run: exit %d, want %d\noutput:\n%s", code, driver.ExitClean, out)
	}
}

// TestVetUnitFailsOnWarning runs the built tool through go vet on the
// warn-only fixture: the lone warn-tier finding fails the unit, so
// make lint cannot print a finding that fails nothing.
func TestVetUnitFailsOnWarning(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet")
	}
	tool := filepath.Join(t.TempDir(), "bgplint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building bgplint: %v\n%s", err, out)
	}
	dir := copyFixture(t, "warnfixture")
	vet := exec.Command("go", "vet", "-vettool="+tool, "./rates")
	vet.Dir = dir
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed over a warn-tier finding\n%s", out)
	}
	if !strings.Contains(string(out), "midplane-keyed container with a rack index") {
		t.Fatalf("go vet failed without the warn finding:\n%s", out)
	}
}

// checkSARIF decodes the report and asserts the fields CI consumers
// rely on: spec version, the full rule table, and per-result
// fingerprint + baselineState.
func checkSARIF(t *testing.T, path, wantState string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID              string            `json:"ruleId"`
				Level               string            `json:"level"`
				PartialFingerprints map[string]string `json:"partialFingerprints"`
				BaselineState       string            `json:"baselineState"`
				Locations           []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("sarif version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("sarif runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "bgplint" {
		t.Errorf("tool name = %q, want bgplint", run.Tool.Driver.Name)
	}
	if got, want := len(run.Tool.Driver.Rules), len(lint.Analyzers()); got != want {
		t.Errorf("rule table has %d entries, want %d (one per analyzer)", got, want)
	}
	if len(run.Results) == 0 {
		t.Fatal("sarif report has no results; expected the fixture findings")
	}
	// The fixture produces exactly one finding per file, one rule each.
	wantURI := map[string]string{
		"seedtaint": "fixture.go",
		"atomicpub": "atomic.go",
	}
	seen := make(map[string]bool)
	for _, r := range run.Results {
		uri, ok := wantURI[r.RuleID]
		if !ok {
			t.Errorf("unexpected result ruleId %q", r.RuleID)
			continue
		}
		seen[r.RuleID] = true
		if r.Level != lint.Severity(r.RuleID) {
			t.Errorf("result level = %q, want %q", r.Level, lint.Severity(r.RuleID))
		}
		if r.BaselineState != wantState {
			t.Errorf("baselineState = %q, want %q", r.BaselineState, wantState)
		}
		if len(r.PartialFingerprints) == 0 {
			t.Error("result has no partialFingerprints")
		}
		if len(r.Locations) != 1 || r.Locations[0].PhysicalLocation.ArtifactLocation.URI != uri {
			t.Errorf("%s result location = %+v, want %s", r.RuleID, r.Locations, uri)
		}
		if r.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Error("result region has no startLine")
		}
	}
	for rule := range wantURI {
		if !seen[rule] {
			t.Errorf("sarif report has no %s result", rule)
		}
	}
}
