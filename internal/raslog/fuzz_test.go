package raslog

import (
	"bufio"
	"strings"
	"testing"
	"time"

	"repro/internal/linescan"
)

// FuzzParseRecord drives UnmarshalLine with arbitrary lines. The
// contract under fuzzing: malformed input returns an error (never
// panics), and any line the parser accepts must re-marshal to a line
// the parser accepts again with an identical record — the stability the
// filter cascade and the golden report rely on. ScanFatal's raw-field
// path must agree with the full decode: the same error for a rejected
// line, and for an accepted one the event time the full decode gives
// (built lazily from the key) and the re-marshaled length that
// Record.MarshaledLen and MarshalLine give, through the canonical-line
// shortcut where it applies.
func FuzzParseRecord(f *testing.F) {
	// Seed corpus: the round-trip fixtures plus near-miss malformed lines.
	f.Add(sampleRecord().MarshalLine())
	esc := sampleRecord()
	esc.Message = `pipe | in message \ and backslash` + "\nnewline"
	esc.SubComponent = "a|b"
	f.Add(esc.MarshalLine())
	bare := Record{Severity: SevFatal, Component: CompKernel, EventTime: time.Unix(0, 0).UTC()}
	f.Add(bare.MarshalLine())
	f.Add("")
	f.Add("1|M|KERNEL|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00-M0|sn") // 10 fields
	f.Add("x|M|KERNEL|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00-M0|sn|msg")
	f.Add("1|M|NOPE|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00-M0|sn|msg")
	f.Add("1|M|KERNEL|s|c|LOUD|2008-04-14-15.08.12.285324|f|R00-M0|sn|msg")
	f.Add("1|M|KERNEL|s|c|FATAL|not-a-time|f|R00-M0|sn|msg")
	f.Add(strings.Repeat("|", 10))
	f.Add(`1|\p|KERNEL|\\|\n|FATAL|2008-04-14-15.08.12.285324|\x|R00|sn|m`)
	// Escape-heavy lines: doubled, pipe, newline and unknown escapes, a
	// trailing lone backslash, and recids the re-marshaling shortens.
	f.Add(`1|\\\\|KERNEL|\p\p|\n\n|INFO|2008-04-14-15.08.12.285324|\q\z|R00|sn|tail\`)
	f.Add(`+7|M|MC|s|c|WARNING|2008-04-14-15.08.12.285324|f|R00|sn|\`)
	f.Add(`-0|M|MMCS|s|c|ERROR|2008-04-14-15.08.12.285324|f|R00|sn|\\\`)
	f.Add(`007|\|CARD|\\p|c|FATAL|2008-04-14-15.08.12.285324|f|R00|sn|a\pb\nc\\d`)
	// Calendar near-misses the fast path must reject as time.Parse does.
	f.Add("1|M|KERNEL|s|c|FATAL|2008-02-30-15.08.12.285324|f|R00-M0|sn|msg")
	f.Add("1|M|KERNEL|s|c|FATAL|2100-02-29-15.08.12.285324|f|R00-M0|sn|msg")
	f.Add("1|M|KERNEL|s|c|FATAL|2008-04-31-15.08.12.285324|f|R00-M0|sn|msg")

	f.Fuzz(func(t *testing.T, line string) {
		r, err := UnmarshalLine(line)
		var lf lineFields
		rawErr := lf.parse([]byte(line))
		if (err == nil) != (rawErr == nil) || (err != nil && err.Error() != rawErr.Error()) {
			t.Fatalf("raw-field parse error %v, full decode %v\ninput: %q", rawErr, err, line)
		}
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		if lt := lf.key.time(); lt != r.EventTime {
			t.Fatalf("lazily built event time %v, full decode %v\ninput: %q", lt, r.EventTime, line)
		}
		if pt, err := ParseEventTime(string(lf.f[6])); err != nil || pt != r.EventTime {
			t.Fatalf("accepted event time %q decodes to %v; time.Parse gives %v, %v", lf.f[6], r.EventTime, pt, err)
		}
		n := r.MarshaledLen()
		if want := len(r.MarshalLine()); n != want {
			t.Fatalf("MarshaledLen %d, len(MarshalLine) %d\ninput: %q", n, want, line)
		}
		// The decoders split lines on newlines, so a raw field never
		// holds one; only such lines reach the raw-field count.
		if !strings.Contains(line, "\n") {
			if raw := lf.marshaledLen(&fieldScratch{}); raw != n {
				t.Fatalf("raw-field length %d (canonical %v), decoded %d\ninput: %q", raw, lf.canonical, n, line)
			}
		}
		line2 := r.MarshalLine()
		r2, err := UnmarshalLine(line2)
		if err != nil {
			t.Fatalf("re-parse of own marshaling failed: %v\ninput: %q\nmarshaled: %q", err, line, line2)
		}
		if r2 != r {
			t.Fatalf("unstable round trip:\ninput: %q\nfirst: %+v\nsecond: %+v", line, r, r2)
		}
	})
}

// FuzzScanFatalChunks decodes arbitrary multi-line input with ScanFatal
// at 1 and 3 workers over 64-byte chunks, so lines straddle chunk
// boundaries and the pipeline runs ahead of its emits. The FATAL
// records it hands over (in file order), its Totals and its error text
// must all equal a sequential Reader decode folded the same way, and
// every line that decode accepts must be one the legacy strings.Split
// and time.Parse codec accepts with the same record, so a validation
// gap both decoders share (a day past its month's end, say) shows too.
func FuzzScanFatalChunks(f *testing.F) {
	f.Add(fatalCorpus(40))
	f.Add("garbage\n" + fatalCorpus(10))
	f.Add(fatalCorpus(20) + "1|M|KERNEL|s|c|FATAL|2008-02-30-00.00.00.000000|f|R00|sn|m\n" + fatalCorpus(5))
	f.Add(fatalCorpus(20) + "1|M|KERNEL|s|c|INFO|2100-02-29-00.00.00.000000|f|R00|sn|m\n" + fatalCorpus(5))
	f.Add("1|M|KERNEL|s|c|FATAL|2008-04-14-15.08.12,285324|f|R00|sn|m\r\n\n007|\\p|CARD|s|c|INFO|0000-02-29-00.00.00.000000|f|R00|sn|a\\")
	f.Add("")
	// The head-only split's shapes: 0 to 14 separators, a separator at
	// either end, escapes in the tail, short lines, and a backslash in
	// one line of a chunk among plain ones.
	f.Add(strings.Join(splitLines(), "\n"))
	f.Add(strings.Join(splitLines(), "\r\n"))
	plain := "1|M|KERNEL|s|c|INFO|2008-04-14-15.08.12.285324|f|R00|sn|m\n"
	f.Add(strings.Repeat(plain, 4) + `2|M|KERNEL|s|c|FATAL|2008-04-14-15.08.13.000000|\p|R00|sn|a\qb` + "\n" + strings.Repeat(plain, 4))
	f.Add(plain + "|1|M|KERNEL|s|c|INFO|2008-04-14-15.08.12.285324|f|R00|sn\n" + plain)
	f.Add(plain + "1|M|KERNEL|s|c|INFO|2008-04-14-15.08.12.285324|f|R00|sn|m|\n1|2|3\n")

	f.Fuzz(func(t *testing.T, in string) {
		all, wantErr := NewReader(strings.NewReader(in)).ReadAll()
		lines := bufio.NewScanner(strings.NewReader(in))
		lines.Buffer(nil, linescan.MaxLineBytes)
		for k := 0; k < len(all) && lines.Scan(); {
			if lines.Text() == "" {
				continue
			}
			if legacy, err := legacyUnmarshalLine(lines.Text()); err != nil || legacy != all[k] {
				t.Fatalf("line %q decodes to %+v; the legacy codec gives %+v, %v", lines.Text(), all[k], legacy, err)
			}
			k++
		}
		var want []Record
		var wantTot Totals
		for i := range all {
			r := &all[i]
			fatal := 0
			if r.Fatal() {
				fatal = 1
				want = append(want, *r)
			}
			wantTot.merge(Totals{Records: 1, Bytes: len(r.MarshalLine()) + 1, Fatal: fatal, First: r.EventTime, Last: r.EventTime})
		}
		for _, workers := range []int{1, 3} {
			var got []Record
			tot, err := scanFatal(strings.NewReader(in), linescan.Options{Workers: workers, ChunkBytes: 64}, func(recs []Record) error {
				got = append(got, recs...)
				return nil
			})
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("workers=%d: err %v, sequential %v\ninput: %q", workers, err, wantErr, in)
			}
			if tot != wantTot {
				t.Fatalf("workers=%d: totals %+v, sequential %+v\ninput: %q", workers, tot, wantTot, in)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d: %d FATAL records, sequential %d\ninput: %q", workers, len(got), len(want), in)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d: FATAL record %d:\n got %+v\nwant %+v\ninput: %q", workers, i, got[i], want[i], in)
				}
			}
		}
	})
}
