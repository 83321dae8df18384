package raslog

import (
	"strings"
	"testing"
	"time"
)

// FuzzParseRecord drives UnmarshalLine with arbitrary lines. The
// contract under fuzzing: malformed input returns an error (never
// panics), and any line the parser accepts must re-marshal to a line
// the parser accepts again with an identical record — the stability the
// filter cascade and the golden report rely on. ReadFatal's raw-field
// path must agree with the full decode: the same error for a rejected
// line, and for an accepted one the re-marshaled length that
// Record.MarshaledLen and MarshalLine give.
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
		n := r.MarshaledLen()
		if want := len(r.MarshalLine()); n != want {
			t.Fatalf("MarshaledLen %d, len(MarshalLine) %d\ninput: %q", n, want, line)
		}
		// The decoders split lines on newlines, so a raw field never
		// holds one; only such lines reach the raw-field count.
		if !strings.Contains(line, "\n") {
			if raw := lf.marshaledLen(&fieldScratch{}); raw != n {
				t.Fatalf("raw-field length %d, decoded %d\ninput: %q", raw, n, line)
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
