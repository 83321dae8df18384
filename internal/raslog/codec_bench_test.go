package raslog

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// benchCorpus builds a realistic in-memory RAS log: a few thousand
// records drawn from a small vocabulary of MsgIDs/ErrCodes/locations,
// the redundancy profile the intern table is designed for.
func benchCorpus(n int) string {
	rng := rand.New(rand.NewSource(42))
	var b strings.Builder
	for i := 0; i < n; i++ {
		r := randomRecord(rng)
		r.RecID = int64(i + 1)
		b.WriteString(legacyMarshalLine(r))
		b.WriteString("\n")
	}
	return b.String()
}

const benchRecords = 8192

// BenchmarkRASUnmarshal measures the streaming Reader's per-record
// decode cost (scan + parse + intern), the number the ≥10× allocs/op
// acceptance criterion is judged on.
func BenchmarkRASUnmarshal(b *testing.B) {
	in := benchCorpus(benchRecords)
	b.SetBytes(int64(len(in) / benchRecords))
	b.ReportAllocs()
	b.ResetTimer()
	r := NewReader(strings.NewReader(in))
	for i := 0; i < b.N; i++ {
		if !r.Next() {
			if err := r.Err(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			r = NewReader(strings.NewReader(in))
			b.StartTimer()
			if !r.Next() {
				b.Fatal(r.Err())
			}
		}
	}
}

// BenchmarkRASUnmarshalFields measures the raw field scanner without a
// reader or intern table: every retained field is a fresh allocation.
func BenchmarkRASUnmarshalFields(b *testing.B) {
	line := []byte(sampleRecord().MarshalLine())
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	var r Record
	for i := 0; i < b.N; i++ {
		if err := r.UnmarshalFields(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRASMarshal measures AppendLine into a reused buffer.
func BenchmarkRASMarshal(b *testing.B) {
	r := sampleRecord()
	buf := make([]byte, 0, 256)
	b.SetBytes(int64(len(r.MarshalLine())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.AppendLine(buf[:0])
	}
	_ = buf
}

// BenchmarkRASDecodeParallel measures the sharded streaming decode
// end-to-end (chunking + parse + merge) at GOMAXPROCS workers.
func BenchmarkRASDecodeParallel(b *testing.B) {
	in := benchCorpus(benchRecords)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := ReadAllParallel(strings.NewReader(in), 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != benchRecords {
			b.Fatalf("decoded %d records, want %d", len(recs), benchRecords)
		}
	}
}

// scanNoisePerFatal is the paper's shape (2,084,392 records, 33,370 of
// them FATAL): about 62 noise lines per FATAL one.
const scanNoisePerFatal = 62

// scanCorpus builds a RAS log of n lines in the generator's style: event
// times rising by under a second, no backslashes (a generated log has
// none), and one FATAL line after every scanNoisePerFatal noise lines.
func scanCorpus(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	msgs := []string{
		"power-good transition", "correctable ECC single-symbol error",
		"link training completed", "An error(s) was detected by the Clock card : Error=Loss of reference input",
	}
	t := sampleRecord().EventTime
	var b []byte
	for i := 0; i < n; i++ {
		r := sampleRecord()
		r.RecID = int64(i + 1)
		r.Severity = []Severity{SevInfo, SevWarning, SevError}[rng.Intn(3)]
		if i%(scanNoisePerFatal+1) == scanNoisePerFatal {
			r.Severity = SevFatal
		}
		t = t.Add(time.Duration(rng.Int63n(int64(time.Second))) / 1000 * 1000)
		r.EventTime = t
		r.Location = fmt.Sprintf("R%02d-M%d-N%02d-J%02d", rng.Intn(40), rng.Intn(2), rng.Intn(16), rng.Intn(32))
		r.Message = msgs[rng.Intn(len(msgs))]
		b = append(r.AppendLine(b), '\n')
	}
	return b
}

// BenchmarkScanFatal measures the one-worker FATAL-only decode against
// its floor: x_floor is its fastest op over the fastest bytes.Count
// newline pass over the same bytes, both timed in the same run, so the
// ratio holds on a host whose absolute speed drifts between runs. It is
// not in bgpbench's ns/op gate.
func BenchmarkScanFatal(b *testing.B) {
	in := scanCorpus(1 << 15)
	lines := bytes.Count(in, []byte{'\n'})
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	var total time.Duration
	scan, floor := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if bytes.Count(in, []byte{'\n'}) != lines {
			b.Fatal("newline count changed")
		}
		t1 := time.Now()
		tot, err := ScanFatal(bytes.NewReader(in), 1, func(*Record) error { return nil })
		if err != nil || tot.Records != lines {
			b.Fatalf("scanned %d of %d lines: %v", tot.Records, lines, err)
		}
		d := time.Since(t1)
		total += d
		scan, floor = min(scan, d), min(floor, t1.Sub(t0))
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N*lines), "ns/line")
	b.ReportMetric(float64(scan)/float64(floor), "x_floor")
}
