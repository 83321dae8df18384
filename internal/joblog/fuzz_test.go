package joblog

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/linescan"
)

// saneEpochRange bounds the timestamps for which we demand a perfectly
// stable round trip. Cobalt epoch timestamps are fractional seconds in
// a float64; inputs like 1e300 or NaN lose integer-nanosecond precision
// by construction, so for those the parser must merely not panic and
// must keep accepting its own output.
var epochLo = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)
var epochHi = time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC)

// UnmarshalLine parses one line of the job log, the string form of
// Job.UnmarshalFields the fuzz targets feed.
func UnmarshalLine(line string) (Job, error) {
	var j Job
	if err := j.UnmarshalFields([]byte(line)); err != nil {
		return Job{}, err
	}
	return j, nil
}

func saneEpoch(t time.Time) bool { return t.After(epochLo) && t.Before(epochHi) }

// FuzzParseJob drives UnmarshalLine with arbitrary job-log lines:
// malformed input must error (never panic), accepted input must
// re-marshal to a line that parses again, and for timestamps in the
// representable range the reparsed job must equal the first parse.
func FuzzParseJob(f *testing.F) {
	// Seed corpus from the round-trip fixtures.
	start := time.Date(2008, 5, 1, 0, 0, 43, 0, time.UTC)
	j := Job{
		ID: 8935, Name: "N.A.", ExecFile: "/home/u/app.exe",
		QueueTime: start.Add(-52 * time.Minute), StartTime: start, EndTime: start.Add(time.Hour),
		Partition: bgp.Partition{Start: 16, Size: 4},
		User:      "alice", Project: "climate",
	}
	f.Add(j.MarshalLine())
	f.Add(mkJob(1, "/bin/x", start, start.Add(time.Minute), bgp.Partition{Start: 0, Size: 1}).MarshalLine())
	wide := mkJob(2, `we|ird\exec`, start, start.Add(time.Hour), bgp.Partition{Start: 0, Size: 80})
	f.Add(wide.MarshalLine())
	f.Add("")
	f.Add("1|n|e|0|0|0|R00-M0|u") // 8 fields
	f.Add("x|n|e|0|0|0|R00-M0|u|p")
	f.Add("1|n|e|zero|0|0|R00-M0|u|p")
	f.Add("1|n|e|0|0|0|R99-M9|u|p")
	f.Add("1|n|e|0|0|0|R00-M0..R00-M0|u|p")
	f.Add("1|n|e|0|0|0|R00-R03|u|p")
	f.Add("1|n|e|NaN|+Inf|-Inf|R00-M0|u|p")
	f.Add("1|n|e|1e300|0|0|R00-M0|u|p")
	f.Add(strings.Repeat("|", 8))

	f.Fuzz(func(t *testing.T, line string) {
		j, err := UnmarshalLine(line)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		line2 := j.MarshalLine()
		j2, err := UnmarshalLine(line2)
		if err != nil {
			t.Fatalf("re-parse of own marshaling failed: %v\ninput: %q\nmarshaled: %q", err, line, line2)
		}
		if !saneEpoch(j.QueueTime) || !saneEpoch(j.StartTime) || !saneEpoch(j.EndTime) {
			return // degenerate timestamps only guarantee re-acceptance
		}
		// Epoch serialization quantizes to 10ms, so the first
		// normalization may shave sub-quantum digits; everything else
		// must survive exactly.
		const quantum = 10 * time.Millisecond
		for _, d := range []time.Duration{
			j2.QueueTime.Sub(j.QueueTime), j2.StartTime.Sub(j.StartTime), j2.EndTime.Sub(j.EndTime),
		} {
			if d > quantum || d < -quantum {
				t.Fatalf("timestamp drift %v beyond the 10ms quantum:\ninput: %q", d, line)
			}
		}
		j.QueueTime, j.StartTime, j.EndTime = j2.QueueTime, j2.StartTime, j2.EndTime
		if j2 != j {
			t.Fatalf("non-timestamp field changed in round trip:\ninput: %q\nfirst: %+v\nsecond: %+v", line, j, j2)
		}
		// After one normalization the line must be a fixed point.
		line3 := j2.MarshalLine()
		if line3 != line2 {
			t.Fatalf("marshaling not a fixed point:\nfirst:  %q\nsecond: %q", line2, line3)
		}
	})
}

// marshaledLenSeeds are jobs at the edges of MarshaledLen's arithmetic:
// epochs whose two-decimal rounding carries (…9.995 s, …9.999 s, just
// below a power of ten), exact powers of ten, negative and pre-1970
// times, extreme and negative IDs, the escaped bytes in every string
// field, and every partition shape.
func marshaledLenSeeds() []Job {
	at := time.Unix
	base := Job{ID: 8935, Name: "N.A.", ExecFile: "/home/u/app.exe", User: "alice", Project: "climate",
		QueueTime: at(1209600000, 0), StartTime: at(1209603000, 5e6), EndTime: at(1209606600, 994e6),
		Partition: bgp.Partition{Start: 16, Size: 4}}
	var out []Job
	times := []time.Time{
		at(9, 995e6), at(9, 999e6), at(99, 999999999), at(999999999, 995e6), at(999999999, 990e6),
		at(999999999, 989999999), at(1e9, 0), at(1e10, 0), at(10, 0), at(1, 0), at(0, 0),
		at(0, 5e6), at(0, 4999999), at(0, -1), at(-1, 0), at(-9, -995e6), at(-1e9, 0),
		at(-999999999, -995e6), at(-86400*365*30, 123e6), at(1<<40, 999e6),
		time.Unix(0, math.MaxInt64), time.Unix(0, math.MinInt64), time.Unix(0, math.MinInt64+1),
		{}, time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for i, tm := range times {
		j := base
		switch i % 3 {
		case 0:
			j.QueueTime = tm
		case 1:
			j.StartTime = tm
		default:
			j.EndTime = tm
		}
		out = append(out, j)
	}
	for _, id := range []int64{0, -1, 9, 10, -10, math.MinInt64, math.MaxInt64} {
		j := base
		j.ID = id
		out = append(out, j)
	}
	for f := 0; f < 4; f++ {
		j := base
		esc := []*string{&j.Name, &j.ExecFile, &j.User, &j.Project}[f]
		*esc = `a|b\c||\\` + "\n"
		out = append(out, j)
	}
	for _, p := range []bgp.Partition{
		{Start: 38, Size: 1}, {Start: 38, Size: 2}, {Start: 16, Size: 4}, {Start: 0, Size: 80},
		{Start: 1, Size: 2}, {Start: 47, Size: 16}, {Start: 0, Size: 0}, {Start: -3, Size: 7},
		{Start: math.MaxInt, Size: 3}, {Start: math.MinInt, Size: -1},
	} {
		j := base
		j.Partition = p
		out = append(out, j)
	}
	return out
}

// FuzzJobMarshaledLen pins MarshaledLen to the bytes AppendLine writes,
// for any field values: Table I counts the job log's size from it.
func FuzzJobMarshaledLen(f *testing.F) {
	for _, j := range marshaledLenSeeds() {
		f.Add(j.ID, j.Name, j.ExecFile, j.QueueTime.Unix(), int64(j.QueueTime.Nanosecond()),
			j.StartTime.Unix(), int64(j.StartTime.Nanosecond()), j.EndTime.Unix(), int64(j.EndTime.Nanosecond()),
			j.Partition.Start, j.Partition.Size, j.User, j.Project)
	}
	f.Fuzz(func(t *testing.T, id int64, name, exec string, qs, qn, ss, sn, es, en int64,
		start, size int, user, project string) {
		j := Job{ID: id, Name: name, ExecFile: exec,
			QueueTime: time.Unix(qs, qn), StartTime: time.Unix(ss, sn), EndTime: time.Unix(es, en),
			Partition: bgp.Partition{Start: start, Size: size}, User: user, Project: project}
		if got, want := j.MarshaledLen(), len(j.AppendLine(nil)); got != want {
			t.Fatalf("MarshaledLen = %d, len(AppendLine) = %d\nline: %q", got, want, j.AppendLine(nil))
		}
	})
}

func TestJobMarshaledLenAndAppendLineAllocateNothing(t *testing.T) {
	jobs := marshaledLenSeeds()
	// Pathological partitions render past AppendTo's stack buffer; the
	// allocation-free contract covers the machine's geometry.
	valid := jobs[:0]
	for _, j := range jobs {
		if j.Partition.Valid() {
			valid = append(valid, j)
		}
	}
	n := 0
	if a := testing.AllocsPerRun(50, func() {
		for i := range valid {
			n += valid[i].MarshaledLen()
		}
	}); a != 0 {
		t.Errorf("MarshaledLen allocates %v times per run", a)
	}
	buf := make([]byte, 0, 512)
	if a := testing.AllocsPerRun(50, func() {
		for i := range valid {
			buf = valid[i].AppendLine(buf[:0])
		}
	}); a != 0 {
		t.Errorf("AppendLine allocates %v times per run", a)
	}
	if n == 0 {
		t.Fatal("no lengths summed")
	}
}

func TestLogMarshaledBytes(t *testing.T) {
	jobs := marshaledLenSeeds()
	want := 0
	for _, j := range jobs {
		want += len(j.AppendLine(nil)) + 1
	}
	l := NewLog(jobs)
	if got := l.MarshaledBytes(); got != want {
		t.Fatalf("MarshaledBytes = %d, want %d", got, want)
	}
	if got := l.MarshaledBytes(); got != want {
		t.Fatalf("second MarshaledBytes = %d, want %d", got, want)
	}
}

// nonCanonicalLog is a job log whose lines are valid but do not
// re-marshal to themselves: signed and zero-padded IDs, epochs with one
// decimal or none, escapes of bytes that need none, a trailing lone
// backslash, and escaped separators in every string field.
const nonCanonicalLog = "+12|n|/bin/a|1209600000|1209600001.5|1209603600.25|R00-M0|u|p\n" +
	"007|N.A.|/bin/a|1209600000.0|1209600000.00|1209603600.999|R00-M0..R00-M1|u|p\n" +
	"-3|\\x|\\p\\\\b|+1209600000|1209600000.004|1209600000.995|R00|\\u|p\\\n" +
	"\n" +
	"4|a\\pb|/bin/b|1209600000|1209600000|1209600000|R01-M1|user|\\p\\p\n" +
	"9|n|/bin/a|0|.5|99.999|R00-M0|u|p\n"

// checkDecodedMarshaledBytes decodes text through ReadLog and through
// readAll at small chunks and four workers, and checks both totals
// against a re-marshal of the decoded jobs. It reports whether text
// decoded.
func checkDecodedMarshaledBytes(t *testing.T, text string) bool {
	t.Helper()
	l, err := ReadLog(strings.NewReader(text), 1)
	if err != nil {
		return false
	}
	want := 0
	for _, j := range l.All() {
		want += len(j.AppendLine(nil)) + 1
	}
	if got := l.MarshaledBytes(); got != want {
		t.Fatalf("ReadLog's MarshaledBytes = %d, re-marshaled %d bytes\nlog: %q", got, want, text)
	}
	_, got, err := readAll(strings.NewReader(text), linescan.Options{Workers: 4, ChunkBytes: 64})
	if err != nil {
		t.Fatalf("chunked decode failed where ReadLog did not: %v", err)
	}
	if got != want {
		t.Fatalf("chunked decode summed %d, re-marshaled %d bytes\nlog: %q", got, want, text)
	}
	return true
}

func TestReadLogMarshaledBytesNonCanonical(t *testing.T) {
	if !checkDecodedMarshaledBytes(t, nonCanonicalLog) {
		t.Fatal("the non-canonical fixture did not decode")
	}
	if l, err := ReadLog(strings.NewReader(nonCanonicalLog), 1); err != nil || l.MarshaledBytes() == len(nonCanonicalLog) {
		t.Fatal("the fixture re-marshals to its own size; it exercises nothing")
	}
}

// FuzzReadLogMarshaledBytes pins the total the decode sums to the bytes
// a re-marshal of the decoded jobs writes, for any accepted log.
func FuzzReadLogMarshaledBytes(f *testing.F) {
	f.Add(nonCanonicalLog)
	for _, line := range strings.Split(nonCanonicalLog, "\n") {
		f.Add(line)
	}
	for _, j := range marshaledLenSeeds() {
		f.Add(j.MarshalLine() + "\n")
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkDecodedMarshaledBytes(t, text)
	})
}

// TestIntLenAtPowersOfTen checks intLen against strconv at every power
// of ten, its neighbours and the int64 extremes.
func TestIntLenAtPowersOfTen(t *testing.T) {
	vals := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for p := int64(1); p <= 1e18; p *= 10 {
		vals = append(vals, p-1, p, p+1, -p+1, -p, -p-1)
	}
	for _, v := range vals {
		if got, want := intLen(v), len(strconv.FormatInt(v, 10)); got != want {
			t.Errorf("intLen(%d) = %d, want %d", v, got, want)
		}
	}
}
