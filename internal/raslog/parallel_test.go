package raslog

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/linescan"
)

// fatalCorpus is a shuffled FATAL+noise log with full (EventTime,
// RecID) ties among its FATAL lines, every escape path in its fields,
// and blank lines.
func fatalCorpus(n int) string {
	rng := rand.New(rand.NewSource(11))
	base := time.Date(2008, 4, 1, 0, 0, 0, 0, time.UTC)
	var b strings.Builder
	for i := 0; i < n; i++ {
		rec := randomRecord(rng)
		// A narrow time range and few RecIDs make full ties common.
		rec.EventTime = base.Add(time.Duration(rng.Intn(n/4+1)) * time.Second)
		rec.RecID = int64(rng.Intn(8))
		if i%3 == 0 {
			rec.Severity = SevFatal
		}
		b.WriteString(rec.MarshalLine())
		b.WriteString("\n")
		if i%29 == 0 {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// sequentialFatal is the oracle for the FATAL-only decode: a
// sequential Reader decode of every record, its FATAL records
// stable-sorted, and Totals counted from each record's MarshalLine.
func sequentialFatal(in string) ([]Record, Totals, error) {
	all, err := NewReader(strings.NewReader(in)).ReadAll()
	var fatal []Record
	var tot Totals
	for i := range all {
		r := &all[i]
		if tot.Records == 0 || r.EventTime.Before(tot.First) {
			tot.First = r.EventTime
		}
		if tot.Records == 0 || r.EventTime.After(tot.Last) {
			tot.Last = r.EventTime
		}
		tot.Records++
		tot.Bytes += len(r.MarshalLine()) + 1
		if r.Fatal() {
			tot.Fatal++
			fatal = append(fatal, *r)
		}
	}
	SortStable(fatal)
	return fatal, tot, err
}

// collectFatal is scanFatal's output collected the way the analysis
// orders it: every emitted FATAL record, stable-sorted.
func collectFatal(in string, opts linescan.Options) ([]Record, Totals, error) {
	var fatal []Record
	tot, err := scanFatal(strings.NewReader(in), opts, func(recs []Record) error {
		fatal = append(fatal, recs...)
		return nil
	})
	SortStable(fatal)
	return fatal, tot, err
}

// TestScanFatalMatchesSequential checks the FATAL-only decode, collected
// and sorted, against a sequential Reader decode: identical FATAL
// records (ties in file order), totals and first error, at every worker
// count and with chunks small enough that the decode cycles through
// its chunk buffers many times (run under -race, aliasing would show as
// corrupted fields). A malformed line is placed in a FATAL record and in
// a noise record.
func TestScanFatalMatchesSequential(t *testing.T) {
	clean := fatalCorpus(1200)
	lines := strings.Split(clean, "\n")
	corrupt := func(sev Severity) string {
		out := append([]string(nil), lines...)
		for i := len(out) / 2; i < len(out); i++ {
			if rec, err := UnmarshalLine(out[i]); err == nil && rec.Fatal() == (sev == SevFatal) {
				out[i] = strings.Replace(out[i], "|"+rec.Component.String()+"|", "|NOPE|", 1)
				return strings.Join(out, "\n")
			}
		}
		t.Fatalf("no %v line to corrupt", sev)
		return ""
	}
	inputs := map[string]string{
		"clean":       clean,
		"empty":       "",
		"no-newline":  strings.TrimSuffix(clean, "\n"),
		"bad-fatal":   corrupt(SevFatal),
		"bad-noise":   corrupt(SevInfo),
		"first-error": "garbage\n" + clean,
	}
	for name, in := range inputs {
		want, wantTot, wantErr := sequentialFatal(in)
		if name == "clean" && (wantTot.Fatal == 0 || wantTot.Fatal == wantTot.Records) {
			t.Fatalf("corpus is not a FATAL+noise mix: %+v", wantTot)
		}
		if strings.HasPrefix(name, "bad-") && wantErr == nil {
			t.Fatalf("%s: corrupted corpus decodes cleanly", name)
		}
		for _, opts := range []linescan.Options{
			{Workers: 1}, {Workers: 2}, {Workers: 8},
			{Workers: 3, ChunkBytes: 512},
		} {
			got, tot, err := collectFatal(in, opts)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s %+v: err %v, want %v", name, opts, err, wantErr)
			}
			if tot != wantTot {
				t.Fatalf("%s %+v: totals %+v, want %+v", name, opts, tot, wantTot)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %+v: %d FATAL records, want %d", name, opts, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %+v: record %d differs:\n got %+v\nwant %+v", name, opts, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReadAllManyWavesMatchesSequential runs the full decode over tiny
// chunks, so each of the pipeline's chunk buffers is reused many times;
// any decoded field aliasing a buffer would differ from the sequential
// decode.
func TestReadAllManyWavesMatchesSequential(t *testing.T) {
	in := fatalCorpus(1500)
	want, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(strings.NewReader(in), linescan.Options{Workers: 4, ChunkBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestScanFatalFileOrderAndTies checks the streaming FATAL-only decode
// against a sequential full decode: fn sees the FATAL records in file
// order (a prefix of them on error), the totals and error are the
// sequential decode's, and the collected records stable-sort to its
// sorted FATAL records. The "tie" input puts two FATAL records that
// fully tie on the minimum (EventTime, RecID) at the first and the last
// line, many chunks apart: the first one seen must win, as in a stable
// sort, so Table II's example record is the one the sorted run starts
// with.
func TestScanFatalFileOrderAndTies(t *testing.T) {
	clean := fatalCorpus(1200)
	tie := func(msg string) string {
		rec := randomRecord(rand.New(rand.NewSource(3)))
		rec.Severity = SevFatal
		rec.EventTime = time.Date(2008, 3, 31, 0, 0, 0, 0, time.UTC)
		rec.RecID = 0
		rec.Message = msg
		return rec.MarshalLine() + "\n"
	}
	inputs := map[string]string{
		"clean":       clean,
		"empty":       "",
		"tie":         tie("seen first") + clean + tie("seen last"),
		"first-error": "garbage\n" + clean,
		"bad-tail":    tie("seen first") + clean + "garbage\n" + tie("seen last"),
	}
	for name, in := range inputs {
		all, _ := NewReader(strings.NewReader(in)).ReadAll()
		var wantOrder []Record
		for i := range all {
			if all[i].Fatal() {
				wantOrder = append(wantOrder, all[i])
			}
		}
		want, wantTot, wantErr := sequentialFatal(in)
		for _, opts := range []linescan.Options{
			{Workers: 1}, {Workers: 2}, {Workers: 4, ChunkBytes: 512}, {Workers: 1, ChunkBytes: 300},
		} {
			var got []Record
			var first *Record
			tot, err := scanFatal(strings.NewReader(in), opts, func(recs []Record) error {
				for i := range recs {
					got = append(got, recs[i])
					if first == nil || Before(&recs[i], first) {
						first = &recs[i]
					}
				}
				return nil
			})
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s %+v: err %v, sequential decode %v", name, opts, err, wantErr)
			}
			if tot != wantTot {
				t.Fatalf("%s %+v: totals %+v, sequential %+v", name, opts, tot, wantTot)
			}
			if len(got) != len(wantOrder) {
				t.Fatalf("%s %+v: %d FATAL records, want %d", name, opts, len(got), len(wantOrder))
			}
			for i := range got {
				if got[i] != wantOrder[i] {
					t.Fatalf("%s %+v: record %d out of file order:\n got %+v\nwant %+v", name, opts, i, got[i], wantOrder[i])
				}
			}
			SortStable(got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %+v: sorted record %d differs from the sequential decode's", name, opts, i)
				}
			}
			if len(want) > 0 && (first == nil || *first != want[0]) {
				t.Fatalf("%s %+v: first FATAL record %+v, sorted run starts with %+v", name, opts, first, want[0])
			}
			if name == "tie" || name == "bad-tail" {
				if first == nil || first.Message != "seen first" {
					t.Fatalf("%s %+v: full tie resolved to %+v, want the record seen first", name, opts, first)
				}
			}
		}
	}
}

// TestScanFatalStopsOnCallbackError requires an fn error to end the
// decode and come back as is.
func TestScanFatalStopsOnCallbackError(t *testing.T) {
	stop := errors.New("stop")
	calls := 0
	_, err := ScanFatal(strings.NewReader(fatalCorpus(300)), 2, func(*Record) error {
		calls++
		return stop
	})
	if err != stop || calls != 1 {
		t.Fatalf("err %v after %d calls, want the callback's error after 1", err, calls)
	}
}
