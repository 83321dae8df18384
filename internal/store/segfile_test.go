package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/symtab"
)

// testRow is a fully named row for building expectation streams.
type testRow struct {
	recID, timeNS int64
	code, loc     string
	comp, sev     int32
}

// randomRows draws n rows with deliberately clumped times (ties
// included), a small vocabulary, and both FATAL and noise severities.
func randomRows(rng *rand.Rand, n int) []testRow {
	rows := make([]testRow, n)
	for i := range rows {
		rows[i] = testRow{
			recID:  int64(i + 1),
			timeNS: int64(rng.Intn(n/2+1)) * 1_000_000_000,
			code:   fmt.Sprintf("code_%d", rng.Intn(7)),
			loc:    fmt.Sprintf("R0%d-M0", rng.Intn(5)),
			comp:   int32(rng.Intn(8)),
			sev:    int32(3 + rng.Intn(4)), // INFO..FATAL
		}
	}
	return rows
}

// sortRows stable-sorts by (time, recID) — the single-block reference
// order.
func sortRows(rows []testRow) []testRow {
	out := append([]testRow(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].timeNS != out[j].timeNS {
			return out[i].timeNS < out[j].timeNS
		}
		return out[i].recID < out[j].recID
	})
	return out
}

// segmentFromRows localizes one already-sorted slice of rows into the
// canonical on-disk form.
func segmentFromRows(seq int, rows []testRow) *SegmentData {
	d := &SegmentData{Seq: seq}
	codeIDs := map[string]symtab.ErrcodeID{}
	locIDs := map[string]symtab.LocationID{}
	for i, r := range rows {
		if i == 0 || r.timeNS < d.MinTime {
			d.MinTime = r.timeNS
		}
		if i == 0 || r.timeNS > d.MaxTime {
			d.MaxTime = r.timeNS
		}
		d.SevBits |= 1 << uint(r.sev)
		d.CompBits |= 1 << uint(r.comp)
		c, ok := codeIDs[r.code]
		if !ok {
			c = symtab.ErrcodeID(len(d.Codes))
			codeIDs[r.code] = c
			d.Codes = append(d.Codes, r.code)
		}
		l, ok := locIDs[r.loc]
		if !ok {
			l = symtab.LocationID(len(d.Locs))
			locIDs[r.loc] = l
			d.Locs = append(d.Locs, r.loc)
		}
		d.Events.Append(r.recID, r.timeNS, c, l, r.comp, r.sev)
	}
	return d
}

// writeSegments partitions sorted rows at the given boundaries and
// commits one segment file per part, returning the catalog directory.
func writeSegments(t *testing.T, rows []testRow, bounds []int) string {
	t.Helper()
	dir := t.TempDir()
	prev := 0
	seq := 0
	for _, b := range append(bounds, len(rows)) {
		if b <= prev {
			continue
		}
		d := segmentFromRows(seq, rows[prev:b])
		if err := CommitSegment(filepath.Join(dir, SegmentFileName(seq)), d); err != nil {
			t.Fatalf("commit segment %d: %v", seq, err)
		}
		seq++
		prev = b
	}
	return dir
}

// drain pulls every row out of a merge reader.
func drain(t *testing.T, m *MergeReader) []Row {
	t.Helper()
	var out []Row
	for {
		row, ok, err := m.Next()
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, row)
	}
}

func checkRows(t *testing.T, got []Row, want []testRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("merged %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		w := Row{RecID: want[i].recID, TimeNS: want[i].timeNS, Code: want[i].code,
			Loc: want[i].loc, Comp: want[i].comp, Sev: want[i].sev}
		if got[i] != w {
			t.Fatalf("row %d: got %+v, want %+v", i, got[i], w)
		}
	}
}

// TestMergeEquivalenceRandomBoundaries is the segmented-vs-single-block
// equivalence suite at the store level: for several seeds, random rows
// are split at random segment boundaries, written to disk, and merged
// back; the merged stream — and the global symtab numbering obtained by
// re-interning it — must equal a single stable sort of the whole input.
func TestMergeEquivalenceRandomBoundaries(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := randomRows(rng, 200+rng.Intn(200))
		sorted := sortRows(rows)

		nb := rng.Intn(6)
		bounds := make([]int, nb)
		for i := range bounds {
			bounds[i] = rng.Intn(len(sorted) + 1)
		}
		sort.Ints(bounds)

		dir := writeSegments(t, sorted, bounds)
		cat, err := OpenCatalog(dir)
		if err != nil {
			t.Fatalf("seed %d: OpenCatalog: %v", seed, err)
		}

		m, err := cat.Merge(Query{})
		if err != nil {
			t.Fatalf("seed %d: Merge: %v", seed, err)
		}
		got := drain(t, m)
		checkRows(t, got, sorted)

		// Re-interning the merged names must reproduce the single-block
		// first-seen numbering exactly — the symtab delta remap.
		var single, merged symtab.Dict[symtab.ErrcodeID]
		for _, r := range sorted {
			single.Intern(r.code)
		}
		for _, r := range got {
			merged.Intern(r.Code)
		}
		if s, m2 := single.Names(), merged.Names(); len(s) != len(m2) {
			t.Fatalf("seed %d: %d vs %d interned codes", seed, len(s), len(m2))
		} else {
			for i := range s {
				if s[i] != m2[i] {
					t.Fatalf("seed %d: global ID %d is %q merged but %q single-block", seed, i, m2[i], s[i])
				}
			}
		}

		// A filtered merge must equal filtering the reference stream.
		q := Query{SevMask: 1 << 6}
		m, err = cat.Merge(q)
		if err != nil {
			t.Fatalf("seed %d: filtered Merge: %v", seed, err)
		}
		var fatals []testRow
		for _, r := range sorted {
			if r.sev == 6 {
				fatals = append(fatals, r)
			}
		}
		checkRows(t, drain(t, m), fatals)
		cat.Close()
	}
}

func TestZoneMapPushdown(t *testing.T) {
	// Two disjoint eras and disjoint severity classes: era queries and
	// severity queries must each skip a segment without scanning it.
	era1 := []testRow{
		{1, 1_000, "a", "L1", 1, 6},
		{2, 2_000, "b", "L2", 1, 6},
	}
	era2 := []testRow{
		{3, 1_000_000, "c", "L3", 2, 4},
		{4, 2_000_000, "c", "L1", 2, 4},
	}
	dir := t.TempDir()
	for seq, rows := range [][]testRow{era1, era2} {
		if err := CommitSegment(filepath.Join(dir, SegmentFileName(seq)), segmentFromRows(seq, rows)); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	cases := []struct {
		name     string
		q        Query
		wantSkip int
		wantRows int
	}{
		{"unfiltered", Query{}, 0, 4},
		{"era1 time window", Query{MaxTimeNS: 10_000}, 1, 2},
		{"era2 time window", Query{MinTimeNS: 500_000}, 1, 2},
		{"fatal only", Query{SevMask: 1 << 6}, 1, 2},
		{"warning only", Query{SevMask: 1 << 4}, 1, 2},
		{"code c", Query{Code: "c"}, 1, 2},
		{"loc L1", Query{Loc: "L1"}, 0, 2},
		{"absent code", Query{Code: "nope"}, 2, 0},
	}
	for _, tc := range cases {
		m, err := cat.Merge(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := drain(t, m)
		st := m.Stats()
		if st.Skipped != tc.wantSkip || len(got) != tc.wantRows {
			t.Errorf("%s: skipped %d segments and yielded %d rows, want %d/%d",
				tc.name, st.Skipped, len(got), tc.wantSkip, tc.wantRows)
		}
		if int(st.Rows) != len(got) || st.Segments != 2 || st.Scanned != 2-st.Skipped {
			t.Errorf("%s: inconsistent stats %+v", tc.name, st)
		}
	}
}

// TestStreamedReaderMatchesMmap forces the buffered sequential backend
// and requires the same rows the mapped backend yields.
func TestStreamedReaderMatchesMmap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rows := sortRows(randomRows(rng, 300))
	dir := writeSegments(t, rows, []int{100, 200})
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	m, err := cat.Merge(Query{})
	if err != nil {
		t.Fatal(err)
	}
	mapped := drain(t, m)

	for _, sf := range cat.Segments() {
		if sf.mm != nil {
			if err := munmapFile(sf.mm); err != nil {
				t.Fatal(err)
			}
			sf.mm = nil
		}
	}
	m, err = cat.Merge(Query{})
	if err != nil {
		t.Fatal(err)
	}
	streamed := drain(t, m)
	if len(mapped) != len(streamed) {
		t.Fatalf("streamed %d rows, mapped %d", len(streamed), len(mapped))
	}
	for i := range mapped {
		if mapped[i] != streamed[i] {
			t.Fatalf("row %d differs: mmap %+v, streamed %+v", i, mapped[i], streamed[i])
		}
	}
}

func TestCatalogSpan(t *testing.T) {
	rows := []testRow{{1, 5_000, "a", "L", 1, 6}, {2, 9_000, "a", "L", 1, 6}}
	dir := writeSegments(t, rows, []int{1})
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	minNS, maxNS, ok := cat.Span()
	if !ok || minNS != 5_000 || maxNS != 9_000 {
		t.Fatalf("Span() = %d, %d, %v", minNS, maxNS, ok)
	}
	empty, err := OpenCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if _, _, ok := empty.Span(); ok {
		t.Fatal("empty catalog reports a span")
	}
}
