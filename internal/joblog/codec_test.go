package joblog

// Legacy-compat tests for the zero-allocation job codec. The legacy*
// functions are the pre-streaming implementation kept verbatim as the
// oracle: AppendLine must emit the bytes legacyMarshalLine did, and
// UnmarshalFields must agree with legacyUnmarshalLine on both accepted
// records and error text.

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bgp"
	"repro/internal/linescan"
)

func legacyEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, fieldSep, `\p`)
}

func legacyUnescape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			if s[i+1] == 'p' {
				b.WriteString(fieldSep)
			} else {
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func legacyMarshalLine(j Job) string {
	fields := []string{
		strconv.FormatInt(j.ID, 10),
		legacyEscape(j.Name),
		legacyEscape(j.ExecFile),
		epoch(j.QueueTime),
		epoch(j.StartTime),
		epoch(j.EndTime),
		j.Partition.String(),
		legacyEscape(j.User),
		legacyEscape(j.Project),
	}
	return strings.Join(fields, fieldSep)
}

func legacyUnmarshalLine(line string) (Job, error) {
	parts := strings.Split(line, fieldSep)
	if len(parts) != numFields {
		return Job{}, fmt.Errorf("%w: %d fields, want %d", ErrBadJob, len(parts), numFields)
	}
	var j Job
	id, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return Job{}, fmt.Errorf("%w: id %q", ErrBadJob, parts[0])
	}
	j.ID = id
	j.Name = legacyUnescape(parts[1])
	j.ExecFile = legacyUnescape(parts[2])
	if j.QueueTime, err = parseEpoch(parts[3]); err != nil {
		return Job{}, fmt.Errorf("%w: queue time %q", ErrBadJob, parts[3])
	}
	if j.StartTime, err = parseEpoch(parts[4]); err != nil {
		return Job{}, fmt.Errorf("%w: start time %q", ErrBadJob, parts[4])
	}
	if j.EndTime, err = parseEpoch(parts[5]); err != nil {
		return Job{}, fmt.Errorf("%w: end time %q", ErrBadJob, parts[5])
	}
	if j.Partition, err = bgp.ParsePartition(parts[6]); err != nil {
		return Job{}, fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	j.User = legacyUnescape(parts[7])
	j.Project = legacyUnescape(parts[8])
	return j, nil
}

func randomJob(rng *rand.Rand) Job {
	texts := []string{"", "N.A.", "turbulence3d", "/home/u/a.out", `p\q`, "na|me", "intrepid-esp"}
	pick := func() string { return texts[rng.Intn(len(texts))] }
	at := func() time.Time {
		return time.Unix(1200000000+rng.Int63n(1e8), rng.Int63n(100)*1e7).UTC()
	}
	start := rng.Intn(bgp.NumMidplanes - 2)
	return Job{
		ID:        rng.Int63n(1 << 32),
		Name:      pick(),
		ExecFile:  pick(),
		QueueTime: at(),
		StartTime: at(),
		EndTime:   at(),
		Partition: bgp.Partition{Start: start, Size: 1 + rng.Intn(2)},
		User:      pick(),
		Project:   pick(),
	}
}

func jobCorpus() []string {
	rng := rand.New(rand.NewSource(2))
	lines := []string{
		"0|||1|.001|1|R00||", // the checked-in fuzz corpus entry
		"",
		"1|n|e|1|2|3|R00|u",                       // 8 fields
		"x|n|e|1|2|3|R00|u|p",                     // bad id
		"1|n|e|oops|2|3|R00|u|p",                  // bad queue time
		"1|n|e|1|2|3|nowhere|u|p",                 // bad partition
		"5|a\\pb|c\\\\d|1.5|2.25|3|R01|u|p",       // escapes
		"7|n|e|1e3|+4.|-0.00|R02|u|p",             // exotic epochs
		"8|n|e|999999999999999999999|2|3|R03|u|p", // epoch beyond the fast path
	}
	for i := 0; i < 300; i++ {
		lines = append(lines, legacyMarshalLine(randomJob(rng)))
	}
	return lines
}

// TestJobAppendLineMatchesLegacyMarshal is the satellite property test
// on the job side: AppendLine output byte-identical to the old
// MarshalLine.
func TestJobAppendLineMatchesLegacyMarshal(t *testing.T) {
	f := func(seed int64) bool {
		j := randomJob(rand.New(rand.NewSource(seed)))
		return string(j.AppendLine(nil)) == legacyMarshalLine(j)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestJobUnmarshalFieldsMatchesLegacy(t *testing.T) {
	for _, line := range jobCorpus() {
		want, wantErr := legacyUnmarshalLine(line)
		var got Job
		gotErr := got.UnmarshalFields([]byte(line))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("UnmarshalFields(%q) err=%v, legacy err=%v", line, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("UnmarshalFields(%q) error %q, legacy %q", line, gotErr, wantErr)
			}
			continue
		}
		if got != want {
			t.Errorf("UnmarshalFields(%q):\n got %+v\nwant %+v", line, got, want)
		}
	}
}

// TestEpochFastPathMatchesParseFloat pins the bit-exactness claim of
// parseEpochBytes: wherever the fast path engages it must produce the
// same instant strconv.ParseFloat does.
func TestEpochFastPathMatchesParseFloat(t *testing.T) {
	cases := []string{
		"0", "1", "-1", "+1", "1.", ".001", "0.01", "-0.00",
		"1207804800.00", "1217621999.99", "999999999999999",
		"123456.789012345",
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		// ≤ 9 integer digits + ≤ 6 fractional digits stays inside the
		// 15-digit fast-path window.
		cases = append(cases, strconv.FormatFloat(rng.Float64()*math.Pow10(rng.Intn(9)), 'f', rng.Intn(7), 64))
	}
	for _, s := range cases {
		got, ok, err := parseEpochBytes([]byte(s))
		if err != nil || !ok {
			t.Fatalf("fast path declined %q (ok=%v err=%v)", s, ok, err)
		}
		want, perr := parseEpoch(s)
		if perr != nil {
			t.Fatalf("parseEpoch(%q): %v", s, perr)
		}
		if !got.Equal(want) || got.Nanosecond() != want.Nanosecond() {
			t.Errorf("parseEpochBytes(%q) = %v, ParseFloat path %v", s, got, want)
		}
	}
}

func TestJobParallelDecodeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var b strings.Builder
	for i := 0; i < 800; i++ {
		b.WriteString(legacyMarshalLine(randomJob(rng)))
		b.WriteString("\n")
		if i%19 == 0 {
			b.WriteString("\n")
		}
	}
	inputs := map[string]string{
		"clean":     b.String(),
		"mid-error": b.String()[:len(b.String())/3] + "bad job line\n" + b.String(),
	}
	for name, in := range inputs {
		want, wantErr := NewReader(strings.NewReader(in)).ReadAll()
		for _, workers := range []int{1, 2, 3, 8} {
			got, err := ReadAllParallel(strings.NewReader(in), workers)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s w=%d: err %v, want %v", name, workers, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s w=%d: %d jobs, want %d", name, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s w=%d: job %d differs:\n got %+v\nwant %+v", name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestJobManyWavesMatchesSequential decodes over tiny chunks, so each
// of the pipeline's chunk buffers is reused many times; under -race,
// any decoded field aliasing a reused buffer would differ from the
// sequential decode.
func TestJobManyWavesMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var b strings.Builder
	for i := 0; i < 1200; i++ {
		b.WriteString(legacyMarshalLine(randomJob(rng)))
		b.WriteString("\n")
	}
	want, err := NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := readAll(strings.NewReader(b.String()), linescan.Options{Workers: 4, ChunkBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d jobs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("job %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestJobReaderTooLongLine is the over-cap regression test on the job
// side: the error must name the line instead of truncating the read.
func TestJobReaderTooLongLine(t *testing.T) {
	good := legacyMarshalLine(randomJob(rand.New(rand.NewSource(1))))
	in := good + "\n" + strings.Repeat("z", linescan.MaxLineBytes+1)
	r := NewReader(strings.NewReader(in))
	n := 0
	for r.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("decoded %d jobs before the long line, want 1", n)
	}
	if err := r.Err(); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("want bufio.ErrTooLong, got %v", err)
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should name line 2: %v", err)
	}
}

// cycleReader reads s over and over without end, so one Reader can
// decode any number of lines.
type cycleReader struct {
	s   string
	off int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	n := copy(p, c.s[c.off:])
	c.off = (c.off + n) % len(c.s)
	return n, nil
}

// BenchmarkJobUnmarshal times the steady-state decode of one job line.
// The Reader is built and run once over the whole corpus before the
// timer starts, so its construction and the first fills of its intern
// tables are not charged to the ops and allocs/op does not depend on
// -benchtime.
func BenchmarkJobUnmarshal(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var sb strings.Builder
	const n = 4096
	for i := 0; i < n; i++ {
		sb.WriteString(legacyMarshalLine(randomJob(rng)))
		sb.WriteString("\n")
	}
	in := sb.String()
	r := NewReader(&cycleReader{s: in})
	for i := 0; i < n; i++ {
		if !r.Next() {
			b.Fatal(r.Err())
		}
	}
	b.SetBytes(int64(len(in) / n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Next() {
			b.Fatal(r.Err())
		}
	}
}

func BenchmarkJobMarshal(b *testing.B) {
	j := randomJob(rand.New(rand.NewSource(8)))
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = j.AppendLine(buf[:0])
	}
	_ = buf
}
