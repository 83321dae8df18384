package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/linescan"
	"repro/internal/raslog"
	"repro/internal/store"
)

// TestMemboundMatchesBatch is the bounded-memory equivalence gate at
// the command level: a -mem-budget small enough to force several spill
// flushes must render byte-identical artifacts to the unconstrained
// in-memory run over the same logs. The spool/merge diagnostics on
// stderr must show a budget flush, and the spill directory must hold
// the log's FATAL rows and nothing else: every spooled row is merged
// back as a FATAL row, and no segment's zone map admits a non-FATAL
// one.
func TestMemboundMatchesBatch(t *testing.T) {
	rasP, jobP := writeFixtureLogs(t)

	var want, wantErr bytes.Buffer
	if err := run([]string{"-ras", rasP, "-job", jobP}, &want, &wantErr); err != nil {
		t.Fatal(err)
	}

	st, err := os.Stat(rasP)
	if err != nil {
		t.Fatal(err)
	}
	budget := st.Size() / 8 // well under the event payload: must spill
	spill := filepath.Join(t.TempDir(), "runs")
	var got, gotErr bytes.Buffer
	err = run([]string{"-ras", rasP, "-job", jobP, "-mem-budget", strconv.FormatInt(budget, 10),
		"-spill-dir", spill}, &got, &gotErr)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("-mem-budget %d output differs from unconstrained run (%d vs %d bytes)",
			budget, got.Len(), want.Len())
	}
	diag := gotErr.String()
	if !strings.Contains(diag, "budget_flushes=") || strings.Contains(diag, "budget_flushes=0") {
		t.Errorf("budget %d forced no spill flush:\n%s", budget, diag)
	}
	fatal := countFatal(t, rasP)
	rows, merged := diagCount(t, diag, "rows"), diagCount(t, diag, "fatal_rows")
	if rows != fatal || merged != fatal {
		t.Errorf("spooled rows=%d, merged fatal_rows=%d, want both = %d FATAL records:\n%s",
			rows, merged, fatal, diag)
	}
	assertFatalOnlySegments(t, spill)

	// The window ablation replays the retained FATAL run, so it must
	// work under the budget and equal batch too.
	var wantSweep, gotSweep bytes.Buffer
	if err := run([]string{"-ras", rasP, "-job", jobP, "-artifact", "sweep"}, &wantSweep, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-ras", rasP, "-job", jobP, "-artifact", "sweep", "-mem-budget", strconv.FormatInt(budget, 10),
		"-spill-dir", filepath.Join(t.TempDir(), "sweep")}, &gotSweep, new(bytes.Buffer))
	if err != nil {
		t.Fatalf("-mem-budget %d -artifact sweep: %v", budget, err)
	}
	if !bytes.Equal(gotSweep.Bytes(), wantSweep.Bytes()) {
		t.Fatalf("-mem-budget %d -artifact sweep:\n%s\nbatch:\n%s", budget, &gotSweep, &wantSweep)
	}
}

// countFatal counts the FATAL records of a RAS log with the sequential
// full decode, independently of the FATAL-only decode under test.
func countFatal(t *testing.T, rasP string) int {
	t.Helper()
	f, err := os.Open(rasP)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := raslog.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := range recs {
		if recs[i].Fatal() {
			n++
		}
	}
	if n == 0 || n == len(recs) {
		t.Fatalf("fixture is not a FATAL+noise mix: %d of %d records FATAL", n, len(recs))
	}
	return n
}

// diagCount reads the integer after " key=" (or "key=" at a line
// start) from the -mem-budget diagnostics.
func diagCount(t *testing.T, diag, key string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)(?:^|\s)` + key + `=(\d+)`).FindStringSubmatch(diag)
	if m == nil {
		t.Fatalf("no %s= in the diagnostics:\n%s", key, diag)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// assertFatalOnlySegments requires at least one segment run in dir and
// no run whose severity zone map admits a non-FATAL row.
func assertFatalOnlySegments(t *testing.T, dir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("no segment runs in %s", dir)
	}
	noise := store.Query{SevMask: ^uint64(1 << uint(raslog.SevFatal))}
	for _, name := range names {
		sf, err := store.OpenSegment(name)
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		if sf.Zone().Admits(noise) {
			t.Errorf("segment %s admits non-FATAL rows: severity bits %b", sf.Path(), sf.Zone().SevBits)
		}
	}
}

// TestMemboundParallelismInvariant requires byte-identical -mem-budget
// output and diagnostics at -parallelism 1 and the default, over a log
// several decode chunks long.
func TestMemboundParallelismInvariant(t *testing.T) {
	rasP, jobP := writeLogs(t, 40)
	st, err := os.Stat(rasP)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < 2*linescan.DefaultChunkBytes {
		t.Fatalf("RAS log is %d bytes, want several decode chunks", st.Size())
	}
	budget := strconv.FormatInt(st.Size()/200, 10)
	var outs, diags [2]bytes.Buffer
	for i, par := range []string{"1", "0"} {
		err := run([]string{"-ras", rasP, "-job", jobP, "-mem-budget", budget, "-parallelism", par},
			&outs[i], &diags[i])
		if err != nil {
			t.Fatalf("-parallelism %s: %v", par, err)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatal("-mem-budget output differs between -parallelism 1 and the default")
	}
	if diags[0].String() != diags[1].String() {
		t.Fatalf("-mem-budget diagnostics differ:\n%s\nvs\n%s", &diags[0], &diags[1])
	}
	if strings.Contains(diags[0].String(), "budget_flushes=0") {
		t.Errorf("budget %s forced no spill flush:\n%s", budget, &diags[0])
	}
}

// TestMemboundTableIIFullTie puts two FATAL records that fully tie on
// the minimum (EventTime, RecID) at the first and the last line of a
// log several decode chunks long: -mem-budget must pick the one seen
// first for Table II, as the batch path's stable sort does.
func TestMemboundTableIIFullTie(t *testing.T) {
	rasP, jobP := writeLogs(t, 40)
	data, err := os.ReadFile(rasP)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2*linescan.DefaultChunkBytes {
		t.Fatalf("RAS log is %d bytes, want several decode chunks", len(data))
	}
	first, err := raslog.UnmarshalLine(strings.SplitN(string(data), "\n", 2)[0])
	if err != nil {
		t.Fatal(err)
	}
	tie := func(msg string) string {
		rec := first
		rec.Severity = raslog.SevFatal
		rec.EventTime = rec.EventTime.Add(-time.Hour)
		rec.Message = msg
		return rec.MarshalLine() + "\n"
	}
	p := filepath.Join(t.TempDir(), "tie.log")
	if err := os.WriteFile(p, []byte(tie("seen first")+string(data)+tie("seen last")), 0o644); err != nil {
		t.Fatal(err)
	}
	var batch, bound bytes.Buffer
	if err := run([]string{"-ras", p, "-job", jobP, "-artifact", "t2"}, &batch, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ras", p, "-job", jobP, "-artifact", "t2", "-mem-budget", "4096"}, &bound, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(batch.String(), "seen first") {
		t.Fatalf("batch Table II is not the tied record seen first:\n%s", &batch)
	}
	if !bytes.Equal(bound.Bytes(), batch.Bytes()) {
		t.Fatalf("-mem-budget Table II:\n%s\nbatch:\n%s", &bound, &batch)
	}
}

// TestMemboundBadLineMatchesBatch corrupts a noise line and a FATAL
// line: -mem-budget must fail on the same line, with the same error, as
// the batch decode.
func TestMemboundBadLineMatchesBatch(t *testing.T) {
	rasP, jobP := writeFixtureLogs(t)
	data, err := os.ReadFile(rasP)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for _, fatal := range []bool{false, true} {
		// Corrupt the first line of the wanted class in the second half.
		bad := -1
		for i := len(lines) / 2; i < len(lines) && bad < 0; i++ {
			if rec, err := raslog.UnmarshalLine(lines[i]); err == nil && rec.Fatal() == fatal {
				bad = i
			}
		}
		if bad < 0 {
			t.Fatalf("no line with fatal=%v to corrupt", fatal)
		}
		out := append([]string(nil), lines...)
		out[bad] = strings.Replace(out[bad], "|", "|NOPE|", 2)
		p := filepath.Join(t.TempDir(), "bad.log")
		if err := os.WriteFile(p, []byte(strings.Join(out, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}

		batchErr := run([]string{"-ras", p, "-job", jobP}, new(bytes.Buffer), new(bytes.Buffer))
		boundErr := run([]string{"-ras", p, "-job", jobP, "-mem-budget", "4096"}, new(bytes.Buffer), new(bytes.Buffer))
		if batchErr == nil || boundErr == nil {
			t.Fatalf("fatal=%v: corrupted line accepted: batch %v, -mem-budget %v", fatal, batchErr, boundErr)
		}
		wantLine := fmt.Sprintf("line %d:", bad+1)
		if !strings.Contains(batchErr.Error(), wantLine) {
			t.Fatalf("fatal=%v: batch error does not name %q: %v", fatal, wantLine, batchErr)
		}
		const from = "reading RAS log: "
		_, b, _ := strings.Cut(batchErr.Error(), from)
		_, m, _ := strings.Cut(boundErr.Error(), from)
		if b != m {
			t.Errorf("fatal=%v: -mem-budget error %q, batch %q", fatal, boundErr, batchErr)
		}
	}
}

// TestMemboundSingleArtifact checks the artifact selector works on the
// bounded path and that an explicit -spill-dir receives segment runs.
func TestMemboundSingleArtifact(t *testing.T) {
	rasP, jobP := writeFixtureLogs(t)
	spill := filepath.Join(t.TempDir(), "runs")

	var want bytes.Buffer
	if err := run([]string{"-ras", rasP, "-job", jobP, "-artifact", "t4"}, &want, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	err := run([]string{"-ras", rasP, "-job", jobP, "-artifact", "t4",
		"-mem-budget", "4096", "-spill-dir", spill}, &got, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("-artifact t4 differs under -mem-budget")
	}
	segs, err := filepath.Glob(filepath.Join(spill, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segment runs in the explicit -spill-dir")
	}

	var out bytes.Buffer
	err = run([]string{"-ras", rasP, "-job", jobP, "-artifact", "bogus", "-mem-budget", "4096"},
		&out, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "unknown artifact") {
		t.Errorf("bounded path accepted unknown artifact: %v", err)
	}
}
