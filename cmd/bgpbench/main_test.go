package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
)

const cannedOutput = `goos: linux
goarch: amd64
pkg: repro/internal/raslog
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRASUnmarshal-4       	    2000	      1100 ns/op	  96.55 MB/s	      28 B/op	       0 allocs/op
BenchmarkRASUnmarshal-4       	    2000	      1050 ns/op	  99.55 MB/s	      28 B/op	       0 allocs/op
BenchmarkRASMarshal-4         	    2000	      1059 ns/op	 210.61 MB/s	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/raslog	0.113s
goos: linux
goarch: amd64
pkg: repro/internal/joblog
BenchmarkJobUnmarshal 	    2000	       900.5 ns/op	      10 B/op	       1 allocs/op
PASS
ok  	repro/internal/joblog	0.1s
`

func TestParseAndReduce(t *testing.T) {
	samples, err := parseBenchOutput(strings.NewReader(cannedOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(samples))
	}
	benches, err := reduce(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("reduced to %d benchmarks, want 3", len(benches))
	}
	byKey := map[string]Benchmark{}
	for _, b := range benches {
		byKey[key(b.Package, b.Name)] = b
	}
	ras := byKey["repro/internal/raslog.BenchmarkRASUnmarshal"]
	if ras.NsPerOp != 1050 { // min across the two samples
		t.Errorf("NsPerOp = %v, want min 1050", ras.NsPerOp)
	}
	if ras.Samples != 2 || ras.AllocsPerOp != 0 || ras.BytesPerOp != 28 {
		t.Errorf("unexpected reduced benchmark: %+v", ras)
	}
	job := byKey["repro/internal/joblog.BenchmarkJobUnmarshal"]
	if job.NsPerOp != 900.5 || job.AllocsPerOp != 1 {
		t.Errorf("fractional ns/op mishandled: %+v", job)
	}
	// GOMAXPROCS suffix must be stripped.
	if _, ok := byKey["repro/internal/raslog.BenchmarkRASMarshal"]; !ok {
		t.Error("missing BenchmarkRASMarshal (suffix not stripped?)")
	}
}

// TestGoTestArgsPinCPU pins the gate's answer to wavering allocs/op:
// every gated benchmark runs at one P, whatever the host offers.
func TestGoTestArgsPinCPU(t *testing.T) {
	args := goTestArgs("10x", 3)
	found := false
	for i := 0; i+1 < len(args); i++ {
		if args[i] == "-cpu" {
			found = true
			if args[i+1] != "1" {
				t.Errorf("-cpu %s, want 1", args[i+1])
			}
		}
	}
	if !found {
		t.Fatalf("go test args lack -cpu: %q", args)
	}
}

func TestReduceRejectsWaveringAllocs(t *testing.T) {
	in := `pkg: p
BenchmarkX 	100	10 ns/op	1 B/op	1 allocs/op
BenchmarkX 	100	11 ns/op	9 B/op	2 allocs/op
`
	samples, err := parseBenchOutput(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reduce(samples); err == nil {
		t.Fatal("wavering allocs/op accepted")
	}
}

func report(host Host, benches ...Benchmark) *Report {
	return &Report{Schema: SchemaV1, GeneratedWith: host, Benchtime: "2000x", Count: 5, Benchmarks: benches}
}

func TestCompareGate(t *testing.T) {
	h := currentHost()
	base := report(h,
		Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 1000, AllocsPerOp: 0, Samples: 5},
		Benchmark{Name: "BenchmarkB", Package: "p", NsPerOp: 500, AllocsPerOp: 3, Samples: 5},
	)

	// Within tolerance, same allocs: pass.
	cur := report(h,
		Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 1200, AllocsPerOp: 0, Samples: 5},
		Benchmark{Name: "BenchmarkB", Package: "p", NsPerOp: 400, AllocsPerOp: 3, Samples: 5},
	)
	if regs := compareReports(base, cur, 0.25, true); len(regs) != 0 {
		t.Fatalf("clean run flagged: %+v", regs)
	}

	// >25% ns/op: fail.
	cur.Benchmarks[0].NsPerOp = 1260
	regs := compareReports(base, cur, 0.25, true)
	if len(regs) != 1 || !strings.Contains(regs[0].Reason, "ns/op") {
		t.Fatalf("ns/op regression not flagged: %+v", regs)
	}

	// Any allocs/op growth: fail even inside ns tolerance.
	cur.Benchmarks[0].NsPerOp = 1000
	cur.Benchmarks[1].AllocsPerOp = 4
	regs = compareReports(base, cur, 0.25, true)
	if len(regs) != 1 || !strings.Contains(regs[0].Reason, "allocs/op") {
		t.Fatalf("allocs regression not flagged: %+v", regs)
	}

	// >25% B/op: fail even with flat ns/op and allocs/op.
	base.Benchmarks[0].BytesPerOp = 1000
	cur.Benchmarks[0].BytesPerOp = 1300
	cur.Benchmarks[1].AllocsPerOp = 3
	regs = compareReports(base, cur, 0.25, true)
	if len(regs) != 1 || !strings.Contains(regs[0].Reason, "B/op") {
		t.Fatalf("B/op regression not flagged: %+v", regs)
	}
	cur.Benchmarks[0].BytesPerOp = 1200
	if regs := compareReports(base, cur, 0.25, true); len(regs) != 0 {
		t.Fatalf("in-tolerance B/op growth flagged: %+v", regs)
	}

	// Dropped benchmark: fail.
	cur = report(h, cur.Benchmarks[0])
	regs = compareReports(base, cur, 0.25, true)
	if len(regs) != 1 || !strings.Contains(regs[0].Reason, "missing") {
		t.Fatalf("missing benchmark not flagged: %+v", regs)
	}
}

func TestHostComparable(t *testing.T) {
	h := Host{Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 4, GOMAXPROCS: 4}
	if ok, _ := h.Comparable(h); !ok {
		t.Fatal("host not comparable to itself")
	}
	patch := h
	patch.Go = "go1.24.5"
	if ok, _ := h.Comparable(patch); !ok {
		t.Error("patch-release difference should be comparable")
	}
	minor := h
	minor.Go = "go1.25.0"
	if ok, why := h.Comparable(minor); ok || !strings.Contains(why, "go version") {
		t.Errorf("minor-release difference comparable: %v %q", ok, why)
	}
	cpus := h
	cpus.NumCPU = 16
	if ok, why := h.Comparable(cpus); ok || !strings.Contains(why, "NumCPU") {
		t.Errorf("CPU-count difference comparable: %v %q", ok, why)
	}
}

// TestCompareEndToEnd drives the compare subcommand through run():
// JSON round trip, gate verdicts and exit codes, host-mismatch skip.
// writeReportFile writes rep to dir/name and returns the path.
func writeReportFile(t *testing.T, dir, name string, rep *Report) string {
	t.Helper()
	p := filepath.Join(dir, name)
	f, err := os.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeReport(f, rep); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return p
}

func TestCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *Report) string { return writeReportFile(t, dir, name, rep) }
	h := currentHost()
	baseP := write("base.json", report(h, Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 1000, Samples: 5}))
	okP := write("ok.json", report(h, Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 1100, Samples: 5}))
	badP := write("bad.json", report(h, Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 2000, Samples: 5}))
	other := h
	other.NumCPU++
	otherP := write("other.json", report(other, Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 9000, Samples: 5}))

	var out, errOut bytes.Buffer
	if code := run([]string{"compare", "-baseline", baseP, "-current", okP}, &out, &errOut); code != 0 {
		t.Fatalf("clean compare exited %d: %s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := run([]string{"compare", "-baseline", baseP, "-current", badP}, &out, &errOut); code != 1 {
		t.Fatalf("regression compare exited %d, want 1", code)
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("regression output missing FAIL: %s", out.String())
	}
	out.Reset()
	if code := run([]string{"compare", "-baseline", baseP, "-current", otherP}, &out, &errOut); code != 0 {
		t.Fatalf("host-mismatch compare exited %d, want 0 (skip)", code)
	}
	if !strings.Contains(out.String(), "SKIP") {
		t.Errorf("host-mismatch output missing SKIP warning: %s", out.String())
	}
	if strings.Contains(out.String(), "::warning") {
		t.Errorf("annotation emitted outside GitHub Actions: %s", out.String())
	}
	out.Reset()
	t.Setenv("GITHUB_ACTIONS", "true")
	if code := run([]string{"compare", "-baseline", baseP, "-current", otherP}, &out, &errOut); code != 0 {
		t.Fatalf("host-mismatch compare under CI exited %d, want 0 (skip)", code)
	}
	if !strings.Contains(out.String(), "::warning title=bgpbench gate skipped::") {
		t.Errorf("CI skip missing ::warning:: annotation: %s", out.String())
	}
	if code := run([]string{"compare", "-baseline", baseP, "-current", filepath.Join(dir, "nope.json")}, &out, &errOut); code != 2 {
		t.Fatal("missing current file should exit 2")
	}
	if code := run([]string{"frobnicate"}, &out, &errOut); code != 2 {
		t.Fatal("unknown subcommand should exit 2")
	}
}

// TestCompareGatesAllocsAcrossCPUCounts checks that a baseline from a
// host with another CPU count still gates allocs/op: one more
// allocation fails the comparison, while ns/op growth alone passes with
// the loud skip of the ns/op half.
func TestCompareGatesAllocsAcrossCPUCounts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *Report) string { return writeReportFile(t, dir, name, rep) }
	other := currentHost()
	other.NumCPU++
	bench := Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 1000, BytesPerOp: 512, AllocsPerOp: 3, Samples: 5}
	baseP := write("base.json", report(other, bench))
	oneMore := bench
	oneMore.AllocsPerOp++
	slower := bench
	slower.NsPerOp *= 3

	var out, errOut bytes.Buffer
	if code := run([]string{"compare", "-baseline", baseP, "-current", write("allocs.json", report(currentHost(), oneMore))}, &out, &errOut); code != 1 {
		t.Fatalf("one more allocs/op on another CPU count: compare exited %d, want 1: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "FAIL p.BenchmarkA: allocs/op") {
		t.Errorf("allocs/op regression not reported: %s", out.String())
	}
	out.Reset()
	if code := run([]string{"compare", "-baseline", baseP, "-current", write("slower.json", report(currentHost(), slower))}, &out, &errOut); code != 0 {
		t.Fatalf("ns/op growth alone on another CPU count: compare exited %d, want 0: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "SKIP ns/op comparison") || !strings.Contains(out.String(), "NumCPU") {
		t.Errorf("ns/op skip not reported: %s", out.String())
	}
}

// TestCompareRefusesOtherSettings checks that compare exits 2, as for
// a malformed report, when the current report was collected at another
// -benchtime or -count than the baseline, even if its numbers would
// pass.
func TestCompareRefusesOtherSettings(t *testing.T) {
	dir := t.TempDir()
	h := currentHost()
	write := func(name string, rep *Report) string { return writeReportFile(t, dir, name, rep) }
	bench := Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 1000, Samples: 5}
	baseP := write("base.json", report(h, bench))
	otherTime := report(h, bench)
	otherTime.Benchtime = "100x"
	otherCount := report(h, bench)
	otherCount.Count = 1
	otherHost := h
	otherHost.NumCPU++
	otherBoth := report(otherHost, bench)
	otherBoth.Count = 3
	for name, rep := range map[string]*Report{"benchtime": otherTime, "count": otherCount, "count on another host": otherBoth} {
		var out, errOut bytes.Buffer
		if code := run([]string{"compare", "-baseline", baseP, "-current", write(name+".json", rep)}, &out, &errOut); code != 2 {
			t.Errorf("%s differs: compare exited %d, want 2: %s%s", name, code, out.String(), errOut.String())
		}
		if !strings.Contains(errOut.String(), "baseline's settings") {
			t.Errorf("%s differs: stderr does not name the settings: %s", name, errOut.String())
		}
	}
}

// TestRunEndToEnd exercises the run subcommand against the real
// repository: it shells out to `go test -bench` with a tiny iteration
// count and checks the emitted report. Skipped in -short runs.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go test -bench")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"run", "-C", root, "-count", "1", "-benchtime", "10x", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	rep, err := readReportFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// Every subset name yields one result entry, except BenchmarkSchedRun,
	// which expands into one sub-benchmark per registered policy.
	want := len(benchSubset) - 1 + len(sched.PolicyNames())
	if len(rep.Benchmarks) != want {
		t.Errorf("report has %d benchmarks, want %d (%+v)", len(rep.Benchmarks), want, rep.Benchmarks)
	}
	// The prediction study is gated: its per-event idleness test must
	// stay on the occupancy index, not a scan of the job log.
	gated := map[string]bool{}
	for _, b := range rep.Benchmarks {
		gated[key(b.Package, b.Name)] = true
	}
	if !gated[key("repro", "BenchmarkExtensionPrediction")] {
		t.Errorf("report lacks repro.BenchmarkExtensionPrediction (%+v)", rep.Benchmarks)
	}
	if rep.GeneratedWith.GOMAXPROCS != benchCPU {
		t.Errorf("report records GOMAXPROCS %d, want %d", rep.GeneratedWith.GOMAXPROCS, benchCPU)
	}
	// Self-comparison must pass the gate.
	regs := compareReports(rep, rep, 0.25, true)
	if len(regs) != 0 {
		t.Errorf("self-comparison regressed: %+v", regs)
	}
}
