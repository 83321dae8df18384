package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
)

// -update regenerates the digest goldens:
//
//	go test ./cmd/bgpgen -run 'TestPolicyMatrixDigests|TestNoiseDigests|TestDeepQueueDigests' -update
var update = flag.Bool("update", false, "rewrite the digest goldens")

const (
	digestGolden    = "testdata/policy_digests.txt"
	noiseGolden     = "testdata/noise_digests.txt"
	deepQueueGolden = "testdata/deep_queue_digests.txt"
)

// digestParams are the campaign parameters the digest golden pins.
// scripts/smoke_policies.sh parses them back out of the golden's
// "# params:" header, so the script and this test can never drift.
var digestParams = []string{"-seed", "4", "-days", "10", "-noise", "0.5"}

// TestPolicyMatrixDigests pins a sha256 per policy log of a tiny
// -policy-matrix campaign — the per-policy byte-identity contract for
// the counterfactuals: any engine or policy change that shifts any
// policy's matrix output must regenerate this file consciously. The
// same file doubles as the smoke script's checksum manifest.
func TestPolicyMatrixDigests(t *testing.T) {
	dir := t.TempDir()
	rasP := filepath.Join(dir, "ras.log")
	jobP := filepath.Join(dir, "job.log")
	var stderr strings.Builder
	args := append(append([]string{}, digestParams...),
		"-policy-matrix", "-workers", "1", "-ras", rasP, "-job", jobP)
	if err := run(args, &stderr); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# params: %s\n", strings.Join(digestParams, " "))
	for _, name := range sched.PolicyNames() {
		for _, base := range []string{"ras.log", "job.log"} {
			p := withPolicy(filepath.Join(dir, base), name)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(data), filepath.Base(p))
		}
	}
	checkGolden(t, digestGolden, b.String())

	// The matrix must be worker-count independent: rerun in parallel
	// and compare the digests again.
	dir2 := t.TempDir()
	args = append(append([]string{}, digestParams...),
		"-policy-matrix", "-workers", "0",
		"-ras", filepath.Join(dir2, "ras.log"), "-job", filepath.Join(dir2, "job.log"))
	if err := run(args, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, name := range sched.PolicyNames() {
		for _, base := range []string{"ras.log", "job.log"} {
			a, err := os.ReadFile(withPolicy(filepath.Join(dir, base), name))
			if err != nil {
				t.Fatal(err)
			}
			c, err := os.ReadFile(withPolicy(filepath.Join(dir2, base), name))
			if err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(a) != sha256.Sum256(c) {
				t.Errorf("policy %s %s differs between sequential and parallel matrix", name, base)
			}
		}
	}
}

// noiseParams are the campaign parameters the noise digest golden
// pins: the default -noise (62 non-fatal records per FATAL one, the
// paper's ratio), so generation sorts and writes a real noise volume.
var noiseParams = []string{"-days", "10"}

// TestNoiseDigests pins a sha256 per log of a single-policy campaign
// at the paper's noise ratio and three seeds. The policy-matrix golden
// runs at -noise 0.5 and so never sorts a realistic noise stream; this
// one guards the generator's sort, renumbering and noise emission.
func TestNoiseDigests(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	fmt.Fprintf(&b, "# params: %s\n", strings.Join(noiseParams, " "))
	for _, seed := range []string{"1", "7", "23"} {
		rasP := filepath.Join(dir, "ras."+seed+".log")
		jobP := filepath.Join(dir, "job."+seed+".log")
		var stderr strings.Builder
		args := append(append([]string{"-seed", seed}, noiseParams...), "-ras", rasP, "-job", jobP)
		if err := run(args, &stderr); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{rasP, jobP} {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(data), filepath.Base(p))
		}
	}
	checkGolden(t, noiseGolden, b.String())
}

// deepQueueParams are the campaign the end-to-end benchmark generates:
// seed 1 over 30 days, FATAL stream only.
var deepQueueParams = []string{"-seed", "1", "-days", "30", "-noise", "0"}

// TestDeepQueueDigests pins a sha256 per log of a single-policy run of
// every registered policy on the benchmark's campaign. The matrix
// golden's 10-day campaign never queues more than a few hundred jobs;
// this one queues up to about two thousand, so it pins the scheduler's
// per-pass width memo, drain reservation and hold expiry under backlog.
func TestDeepQueueDigests(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	fmt.Fprintf(&b, "# params: %s\n", strings.Join(deepQueueParams, " "))
	for _, name := range sched.PolicyNames() {
		rasP := filepath.Join(dir, "ras."+name+".log")
		jobP := filepath.Join(dir, "job."+name+".log")
		var stderr strings.Builder
		args := append(append([]string{"-policy", name}, deepQueueParams...), "-ras", rasP, "-job", jobP)
		if err := run(args, &stderr); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{rasP, jobP} {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(data), filepath.Base(p))
		}
	}
	checkGolden(t, deepQueueGolden, b.String())
}

// checkGolden compares got against the golden file at path, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("digests differ from %s:\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intentional)",
			path, got, want)
	}
}
