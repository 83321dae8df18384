package raslog

import (
	"math/rand"
	"strings"
	"testing"
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
