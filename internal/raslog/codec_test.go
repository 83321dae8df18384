package raslog

import (
	"bufio"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/linescan"
)

// unsafeStringData exposes string identity for the intern test; the
// codec itself stays unsafe-free.
func unsafeStringData(s string) *byte { return unsafe.StringData(s) }

// codecCorpus is the shared line corpus for the legacy-compat tests:
// the fuzz seeds plus lines exercising every escape path and field.
func codecCorpus() []string {
	esc := sampleRecord()
	esc.Message = `pipe | in message \ and backslash` + "\nnewline"
	esc.SubComponent = "a|b"
	bare := Record{Severity: SevFatal, Component: CompKernel, EventTime: time.Unix(0, 0).UTC()}
	neg := sampleRecord()
	neg.RecID = -9223372036854775808
	return []string{
		sampleRecord().MarshalLine(),
		esc.MarshalLine(),
		bare.MarshalLine(),
		neg.MarshalLine(),
		"",
		"1|M|KERNEL|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00-M0|sn", // 10 fields
		"x|M|KERNEL|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00-M0|sn|msg",
		"1|M|NOPE|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00-M0|sn|msg",
		"1|M|KERNEL|s|c|LOUD|2008-04-14-15.08.12.285324|f|R00-M0|sn|msg",
		"1|M|KERNEL|s|c|FATAL|not-a-time|f|R00-M0|sn|msg",
		"1|M|KERNEL|s|c|FATAL|2008-02-30-15.08.12.285324|f|R00-M0|sn|msg", // normalized date
		"1|M|KERNEL|s|c|FATAL|2008-04-14-15.08.12.28532|f|R00-M0|sn|msg",  // short micros
		strings.Repeat("|", 10),
		`1|\p|KERNEL|\\|\n|FATAL|2008-04-14-15.08.12.285324|\x|R00|sn|m`,
		`2|M\|KERNEL|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00|sn|m`, // lone trailing backslash in field
	}
}

func randomRecord(rng *rand.Rand) Record {
	comps := []Component{CompApplication, CompKernel, CompMC, CompMMCS, CompBareMetal, CompCard, CompDiags}
	sevs := []Severity{SevDebug, SevTrace, SevInfo, SevWarning, SevError, SevFatal}
	texts := []string{"", "plain", `back\slash`, "pi|pe", "new\nline", `trail\`, `\p\n\\`, "R23-M0-N08-J09"}
	pick := func() string { return texts[rng.Intn(len(texts))] }
	return Record{
		RecID:        rng.Int63() - rng.Int63(),
		MsgID:        pick(),
		Component:    comps[rng.Intn(len(comps))],
		SubComponent: pick(),
		ErrCode:      pick(),
		Severity:     sevs[rng.Intn(len(sevs))],
		EventTime:    time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)/1000*1000).UTC(),
		Flags:        pick(),
		Location:     pick(),
		Serial:       pick(),
		Message:      pick(),
	}
}

// TestAppendLineMatchesLegacyMarshal is the satellite property test:
// AppendLine output is byte-identical to the strings.Join-based
// MarshalLine it replaced, across corpus lines and random records.
func TestAppendLineMatchesLegacyMarshal(t *testing.T) {
	for _, line := range codecCorpus() {
		r, err := UnmarshalLine(line)
		if err != nil {
			continue
		}
		if got, want := string(r.AppendLine(nil)), legacyMarshalLine(r); got != want {
			t.Errorf("AppendLine(%q):\n got %q\nwant %q", line, got, want)
		}
	}
	f := func(seed int64) bool {
		r := randomRecord(rand.New(rand.NewSource(seed)))
		if seed%5 == 0 {
			r.Severity, r.Component = SevUnknown, CompUnknown // "UNKNOWN" spellings
		}
		return string(r.AppendLine(nil)) == legacyMarshalLine(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalFieldsMatchesLegacy checks parse agreement against the
// old strings.Split parser: identical records on accepted lines,
// matching error text on rejected ones. The one sanctioned divergence
// is RecID strictness (Sscanf tolerated trailing junk).
func TestUnmarshalFieldsMatchesLegacy(t *testing.T) {
	lines := codecCorpus()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		lines = append(lines, legacyMarshalLine(randomRecord(rng)))
	}
	for _, line := range lines {
		want, wantErr := legacyUnmarshalLine(line)
		var got Record
		gotErr := got.UnmarshalFields([]byte(line))
		if wantErr != nil {
			if gotErr == nil {
				t.Errorf("UnmarshalFields(%q) accepted, legacy rejected: %v", line, wantErr)
			} else if gotErr.Error() != wantErr.Error() {
				t.Errorf("UnmarshalFields(%q) error %q, legacy %q", line, gotErr, wantErr)
			}
			continue
		}
		if gotErr != nil {
			t.Errorf("UnmarshalFields(%q): %v, legacy accepted", line, gotErr)
			continue
		}
		if got != want {
			t.Errorf("UnmarshalFields(%q):\n got %+v\nwant %+v", line, got, want)
		}
	}
}

// TestRecIDStrictness pins down the sanctioned divergence: Sscanf
// leniencies are now rejections, plain signed integers still parse.
func TestRecIDStrictness(t *testing.T) {
	tail := "|M|KERNEL|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00|sn|m"
	for _, id := range []string{"0", "7", "+7", "-7", "9223372036854775807", "-9223372036854775808"} {
		var r Record
		if err := r.UnmarshalFields([]byte(id + tail)); err != nil {
			t.Errorf("recid %q rejected: %v", id, err)
		}
	}
	for _, id := range []string{"", "x", "1x", " 1", "+", "-", "9223372036854775808", "-9223372036854775809", "1.5"} {
		var r Record
		if err := r.UnmarshalFields([]byte(id + tail)); !errors.Is(err, ErrBadRecord) {
			t.Errorf("recid %q: want ErrBadRecord, got %v", id, err)
		}
	}
}

// TestStreamingReaderMatchesReadAll drives the Next/Err iterator
// against the batch API over the same input, including the error case.
func TestStreamingReaderMatchesReadAll(t *testing.T) {
	var b strings.Builder
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		b.WriteString(legacyMarshalLine(randomRecord(rng)))
		b.WriteString("\n")
		if i%13 == 0 {
			b.WriteString("\n") // blank lines are skipped
		}
	}
	in := b.String()

	want, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(strings.NewReader(in))
	var got []Record
	for r.Next() {
		got = append(got, *r.Record())
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(want) {
		t.Fatalf("iterator saw %d records, ReadAll %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}

	bad := in + "not a record\n" + in
	r1 := NewReader(strings.NewReader(bad))
	seq, seqErr := r1.ReadAll()
	if seqErr == nil {
		t.Fatal("want error on bad line")
	}
	r2 := NewReader(strings.NewReader(bad))
	n := 0
	for r2.Next() {
		n++
	}
	if r2.Err() == nil || r2.Err().Error() != seqErr.Error() {
		t.Fatalf("iterator error %v, ReadAll %v", r2.Err(), seqErr)
	}
	if n != len(seq) {
		t.Fatalf("iterator yielded %d before error, ReadAll %d", n, len(seq))
	}
	if r2.Next() {
		t.Fatal("Next returned true after error")
	}
}

// TestParallelDecodeMatchesSequential is the satellite equivalence
// test: the sharded streaming decode must reproduce ReadAll — records
// and error — for every worker count, run under -race in CI.
func TestParallelDecodeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var b strings.Builder
	for i := 0; i < 1500; i++ {
		b.WriteString(legacyMarshalLine(randomRecord(rng)))
		b.WriteString("\n")
		if i%17 == 0 {
			b.WriteString("\n")
		}
	}
	inputs := map[string]string{
		"clean":       b.String(),
		"empty":       "",
		"no-newline":  strings.TrimSuffix(b.String(), "\n"),
		"mid-error":   b.String()[:len(b.String())/2] + "garbage line\n" + b.String(),
		"first-error": "garbage\n" + b.String(),
	}
	for name, in := range inputs {
		want, wantErr := NewReader(strings.NewReader(in)).ReadAll()
		for _, workers := range []int{1, 2, 3, 8} {
			got, err := ReadAllParallel(strings.NewReader(in), workers)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s w=%d: err %v, want %v", name, workers, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s w=%d: %d records, want %d", name, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s w=%d: record %d differs:\n got %+v\nwant %+v", name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReaderTooLongLine is the satellite bugfix regression test: a line
// over the 4 MiB scanner cap must surface as an error naming the line,
// not a silent truncated read — on both the sequential and the parallel
// path.
func TestReaderTooLongLine(t *testing.T) {
	in := sampleRecord().MarshalLine() + "\n" +
		sampleRecord().MarshalLine() + "\n" +
		"3|" + strings.Repeat("x", linescan.MaxLineBytes+1)

	r := NewReader(strings.NewReader(in))
	n := 0
	for r.Next() {
		n++
	}
	if n != 2 {
		t.Fatalf("decoded %d records before the long line, want 2", n)
	}
	if err := r.Err(); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("sequential: want bufio.ErrTooLong, got %v", err)
	} else if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("sequential error should name line 3: %v", err)
	}

	recs, err := ReadAllParallel(strings.NewReader(in), 2)
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("parallel: want bufio.ErrTooLong, got %v", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("parallel error should name line 3: %v", err)
	}
	if len(recs) != 2 {
		t.Errorf("parallel decoded %d records before the long line, want 2", len(recs))
	}
}

// TestReaderInternSharesFieldStrings pins the allocation story the
// benchmarks rely on: repeated field values decode to the same backing
// string.
func TestReaderInternSharesFieldStrings(t *testing.T) {
	line := sampleRecord().MarshalLine()
	in := line + "\n" + line + "\n"
	r := NewReader(strings.NewReader(in))
	if !r.Next() {
		t.Fatal(r.Err())
	}
	first := *r.Record()
	if !r.Next() {
		t.Fatal(r.Err())
	}
	second := *r.Record()
	// Same interned instance, not merely equal bytes.
	if unsafeStringData(first.Message) != unsafeStringData(second.Message) {
		t.Error("Message not interned across records")
	}
	if unsafeStringData(first.ErrCode) != unsafeStringData(second.ErrCode) {
		t.Error("ErrCode not interned across records")
	}
}
