package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// benchRows builds one canonical 4096-row segment image — the default
// seal budget, so the encode/scan numbers reflect a production-sized
// segment.
func benchRows(n int) []testRow {
	rng := rand.New(rand.NewSource(42))
	return sortRows(randomRows(rng, n))
}

// BenchmarkSegmentEncode measures the canonical columnar encoding of a
// seal-budget-sized segment into a reused buffer.
func BenchmarkSegmentEncode(b *testing.B) {
	d := segmentFromRows(0, benchRows(DefaultSealRows))
	buf, err := AppendSegment(nil, d)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = AppendSegment(buf[:0], d)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentScan measures a FATAL-masked scan of one committed
// segment file through the mmap-backed reader.
func BenchmarkSegmentScan(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, SegmentFileName(0))
	if err := CommitSegment(path, segmentFromRows(0, benchRows(DefaultSealRows))); err != nil {
		b.Fatal(err)
	}
	sf, err := OpenSegment(path)
	if err != nil {
		b.Fatal(err)
	}
	defer sf.Close()
	b.SetBytes(int64(sf.Rows()) * RowBytes)
	b.ReportAllocs()
	b.ResetTimer()
	var rows int64
	for i := 0; i < b.N; i++ {
		n, err := sf.Scan(Query{SevMask: 1 << 6}, func(Row) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		rows = n
	}
	if rows == 0 {
		b.Fatal("scan matched no rows")
	}
}

// BenchmarkSegmentMerge measures the k-way merge across eight segment
// files back into one ordered stream.
func BenchmarkSegmentMerge(b *testing.B) {
	const parts = 8
	rows := benchRows(parts * 512)
	dir := b.TempDir()
	for i := 0; i < parts; i++ {
		d := segmentFromRows(i, rows[i*512:(i+1)*512])
		if err := CommitSegment(filepath.Join(dir, SegmentFileName(i)), d); err != nil {
			b.Fatal(err)
		}
	}
	cat, err := openCatalogDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer cat.Close()
	b.SetBytes(int64(len(rows)) * RowBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := cat.Merge(Query{})
		if err != nil {
			b.Fatal(err)
		}
		var got int64
		for {
			_, ok, err := m.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			got++
		}
		if got != int64(len(rows)) {
			b.Fatal(fmt.Sprintf("merged %d rows, want %d", got, len(rows)))
		}
	}
}
