package store

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// appendRow feeds one test row to the set the way the serving layer
// does: the row goes to the tail, and a full tail is sealed.
func appendRow(t *testing.T, ss *SegmentSet, r testRow) *SegmentFile {
	t.Helper()
	if !ss.Append(r.recID, r.timeNS, r.code, r.loc, r.comp, r.sev) {
		return nil
	}
	sf, err := ss.Seal()
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return sf
}

func mustSeal(t *testing.T, ss *SegmentSet) *SegmentFile {
	t.Helper()
	sf, err := ss.Seal()
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return sf
}

// commitSealed commits every sealed segment's encoding under dir the
// way the serving layer's seal does, so SpillOver finds its files.
func commitSealed(t *testing.T, ss *SegmentSet, dir string) {
	t.Helper()
	for _, sf := range ss.segs {
		err := CommitFile(filepath.Join(dir, SegmentFileName(sf.Seq())), func(w io.Writer) error {
			_, err := sf.WriteTo(w)
			return err
		})
		if err != nil {
			t.Fatalf("committing segment %d: %v", sf.Seq(), err)
		}
	}
}

// decodeSegment decodes sf's whole encoding, verifying both CRCs.
func decodeSegment(sf *SegmentFile) (*SegmentData, error) {
	var enc bytes.Buffer
	if _, err := sf.WriteTo(&enc); err != nil {
		return nil, err
	}
	return ReadSegment(&enc)
}

func checkCounts(t *testing.T, ss *SegmentSet, segments, sealed, rows int) {
	t.Helper()
	if s, d, r := ss.Counts(); s != segments || d != sealed || r != rows {
		t.Fatalf("Counts() = %d segments, %d sealed, %d rows; want %d, %d, %d", s, d, r, segments, sealed, rows)
	}
}

func TestSegmentSetSealAndCounts(t *testing.T) {
	ss := &SegmentSet{SealRows: 3}
	codes, locs := []string{"b", "a"}, []string{"L2", "L0", "L1"}
	var sealed []*SegmentFile
	for i := 0; i < 7; i++ {
		if sf := appendRow(t, ss, testRow{int64(i + 1), int64(i) * 100, codes[i%2], locs[i%3], 1, 2}); sf != nil {
			sealed = append(sealed, sf)
		}
	}
	if len(sealed) != 2 || sealed[0].Seq() != 0 || sealed[1].Seq() != 1 {
		t.Fatalf("sealed %d segments, want seqs 0 and 1", len(sealed))
	}
	checkCounts(t, ss, 3, 2, 7)

	// A sealed segment is the batch form: zone map from the rows, local
	// vocabularies in first-seen row order.
	z := sealed[0].Zone()
	if z.Rows != 3 || z.MinTime != 0 || z.MaxTime != 200 {
		t.Fatalf("segment 0 zone = %d rows [%d, %d], want 3 rows [0, 200]", z.Rows, z.MinTime, z.MaxTime)
	}
	if !reflect.DeepEqual(z.Codes, []string{"b", "a"}) || !reflect.DeepEqual(z.Locs, []string{"L2", "L0", "L1"}) {
		t.Fatalf("segment 0 vocabularies = %v / %v", z.Codes, z.Locs)
	}
	d, err := decodeSegment(sealed[0])
	if err != nil {
		t.Fatal(err)
	}
	want := segmentFromRows(0, []testRow{{1, 0, "b", "L2", 1, 2}, {2, 100, "a", "L0", 1, 2}, {3, 200, "b", "L1", 1, 2}})
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("segment 0 = %+v, want %+v", d, want)
	}

	// Seal flushes the 1-row tail; sealing an empty tail yields an empty
	// checkpoint segment claiming the next seq.
	if sf := mustSeal(t, ss); sf.Seq() != 2 || sf.Rows() != 1 {
		t.Fatalf("final Seal = seq %d with %d rows, want seq 2 with 1 row", sf.Seq(), sf.Rows())
	}
	checkCounts(t, ss, 3, 3, 7)
	if sf := mustSeal(t, ss); sf.Seq() != 3 || sf.Rows() != 0 {
		t.Fatalf("empty Seal = seq %d with %d rows, want seq 3 with 0 rows", sf.Seq(), sf.Rows())
	}
	checkCounts(t, ss, 4, 4, 7)
}

// TestSealedSegmentImmutable pins the seal contract: a segment returned
// by Seal keeps its rows and bytes through later appends, seals and a
// spill, and the committed file the spill maps is byte-identical to the
// resident encoding it replaces in the set.
func TestSealedSegmentImmutable(t *testing.T) {
	ss := &SegmentSet{SealRows: 100}
	for i := 0; i < 3; i++ {
		appendRow(t, ss, testRow{int64(i + 1), int64(i) * 100, "c", "L", 1, 2})
	}
	sealed := mustSeal(t, ss)
	enc := bytes.Clone(sealed.mm)
	before, err := decodeSegment(sealed)
	if err != nil {
		t.Fatal(err)
	}

	for i := 3; i < 6; i++ {
		appendRow(t, ss, testRow{int64(i + 1), int64(i) * 100, "d", "M", 1, 2})
	}
	mustSeal(t, ss)
	dir := t.TempDir()
	commitSealed(t, ss, dir)
	if n, err := ss.SpillOver(0, dir); err != nil || n != 2 {
		t.Fatalf("SpillOver = %d, %v; want 2 spilled", n, err)
	}

	after, err := decodeSegment(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if sealed.Path() != "" || !bytes.Equal(sealed.mm, enc) || !reflect.DeepEqual(after, before) {
		t.Fatal("the sealed segment changed after later appends and a spill")
	}
	if ss.segs[0] == sealed || ss.segs[0].Path() == "" {
		t.Fatal("the spill did not replace the set's entry with the committed file")
	}
	onDisk, err := os.ReadFile(ss.segs[0].Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, enc) {
		t.Fatal("the spill file differs from the resident encoding")
	}
}

// TestSegmentSetRestore pins the recovery path: committed segments
// opened for reading are adopted in sequence order, whatever their row
// count against SealRows, as file-backed sealed segments, and numbering
// continues after them. Adopt refuses a segment out of sequence and a
// set with an unsealed tail.
func TestSegmentSetRestore(t *testing.T) {
	src := &SegmentSet{SealRows: 100}
	for i := 0; i < 5; i++ {
		appendRow(t, src, testRow{int64(i + 1), int64(i) * 10, "c", "L", 1, 2})
	}
	mustSeal(t, src)
	mustSeal(t, src) // an empty checkpoint segment
	dir := t.TempDir()
	commitSealed(t, src, dir)
	open := func(seq int) *SegmentFile {
		t.Helper()
		sf, err := OpenSegment(filepath.Join(dir, SegmentFileName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sf.Close() })
		return sf
	}

	ss := &SegmentSet{SealRows: 2}
	if err := ss.Adopt(open(1)); err == nil {
		t.Fatal("Adopt accepted segment 1 into an empty set")
	}
	for seq := 0; seq < 2; seq++ {
		if err := ss.Adopt(open(seq)); err != nil {
			t.Fatalf("Adopt(%d): %v", seq, err)
		}
	}
	checkCounts(t, ss, 2, 2, 5)
	if ss.ResidentBytes() != 0 || ss.segs[0].Path() == "" {
		t.Fatal("an adopted segment is resident")
	}
	if sf := appendRow(t, ss, testRow{6, 50, "c", "L", 1, 2}); sf != nil {
		t.Fatalf("a 1-row tail sealed under SealRows 2 (seq %d)", sf.Seq())
	}
	if err := ss.Adopt(open(0)); err == nil {
		t.Fatal("Adopt accepted a segment into a set with an unsealed tail")
	}
	if sf := appendRow(t, ss, testRow{7, 60, "c", "L", 1, 2}); sf == nil || sf.Seq() != 2 {
		t.Fatal("the segment after the adopted ones did not seal as seq 2")
	}
	checkCounts(t, ss, 3, 3, 7)
}
