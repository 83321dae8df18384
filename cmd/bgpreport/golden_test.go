package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/linescan"
	"repro/internal/simulate"
)

// -update regenerates the golden file:
//
//	go test ./cmd/bgpreport -run TestGoldenReport -update
var update = flag.Bool("update", false, "rewrite the golden report file")

const goldenPath = "testdata/report_seed1.golden"

// TestGoldenReport renders the full report at seed 1 (quick campaign)
// and compares it byte for byte against the checked-in golden file.
// This is the byte-identity oracle every refactor is verified against:
// any divergence — ordering, float summation, map iteration — shows up
// here as a diff.
func TestGoldenReport(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-quick", "-seed", "1"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	got := out.Bytes()

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report differs from %s:\n%s\n(run with -update if the change is intentional)",
			goldenPath, firstDiff(got, want))
	}
}

// TestGoldenReportParallelismInvariant analyzes the quick seed-1
// campaign's written logs through the -ras/-job path with the chunked
// decode forced sequential and at 8 workers; the two reports must be
// byte-identical. Each log spans several decode chunks, so -parallelism
// 8 really shards the decode.
func TestGoldenReportParallelismInvariant(t *testing.T) {
	q := repro.QuickConfig(1)
	rasP, jobP := writeCampaignLogs(t, simulate.Config{Seed: q.Seed, Days: q.Days, NoisePerFatal: q.NoisePerFatal})
	for _, p := range []string{rasP, jobP} {
		if fi, err := os.Stat(p); err != nil || fi.Size() <= linescan.DefaultChunkBytes {
			t.Fatalf("%s is one decode chunk or unreadable (%v)", p, err)
		}
	}
	var outs [2]bytes.Buffer
	for i, p := range []string{"1", "8"} {
		var errOut bytes.Buffer
		if err := run([]string{"-ras", rasP, "-job", jobP, "-parallelism", p}, &outs[i], &errOut); err != nil {
			t.Fatalf("-parallelism %s: %v", p, err)
		}
	}
	if !bytes.Contains(outs[0].Bytes(), []byte("Table I:")) {
		t.Fatal("-parallelism 1 rendered no report")
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Errorf("-parallelism 8 diverges from -parallelism 1:\n%s", firstDiff(outs[1].Bytes(), outs[0].Bytes()))
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("length differs: got %d lines, want %d", len(gl), len(wl))
}
