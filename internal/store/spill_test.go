package store

import (
	"math/rand"
	"testing"
)

// fillSet appends rows the way the serving layer does, sealing each
// full tail.
func fillSet(t *testing.T, ss *SegmentSet, rows []testRow) {
	t.Helper()
	for _, r := range rows {
		appendRow(t, ss, r)
	}
}

// scanAll drains SegmentSet.Scan into a slice.
func scanAll(t *testing.T, ss *SegmentSet, q Query) ([]Row, ScanStats) {
	t.Helper()
	var out []Row
	stats, err := ss.Scan(q, func(r Row) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out, stats
}

// TestSpillScanEquivalence seals rows into segments, scans, spills
// everything past a tiny budget, and requires the same scan results
// from the mixed resident/spilled set, including zone skips for
// predicates no segment (the unsealed tail included) can match.
func TestSpillScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := sortRows(randomRows(rng, 500))
	ss := &SegmentSet{SealRows: 64}
	fillSet(t, ss, rows)

	queries := []Query{
		{},
		{SevMask: 1 << 6},
		{MinTimeNS: rows[len(rows)/3].timeNS, MaxTimeNS: rows[2*len(rows)/3].timeNS},
		{Code: rows[0].code},
		{Loc: rows[1].loc},
		{Code: "absent"},
	}
	before := make([][]Row, len(queries))
	for i, q := range queries {
		before[i], _ = scanAll(t, ss, q)
	}
	if got := len(before[0]); got != len(rows) {
		t.Fatalf("unfiltered scan yielded %d rows, want %d", got, len(rows))
	}

	dir := t.TempDir()
	commitSealed(t, ss, dir)
	resident := ss.ResidentBytes()
	n, err := ss.SpillOver(resident/4, dir)
	if err != nil {
		t.Fatalf("SpillOver: %v", err)
	}
	if n == 0 {
		t.Fatal("nothing spilled under a quarter budget")
	}
	if got := ss.ResidentBytes(); got > resident/4 {
		t.Fatalf("resident %d bytes after spill, budget %d", got, resident/4)
	}
	spilled := 0
	for _, sf := range ss.segs {
		if sf.Path() != "" {
			spilled++
		}
	}
	if spilled != n {
		t.Fatalf("%d segments are files, SpillOver returned %d", spilled, n)
	}

	for i, q := range queries {
		after, stats := scanAll(t, ss, q)
		if len(after) != len(before[i]) {
			t.Fatalf("query %d: %d rows after spill, %d before", i, len(after), len(before[i]))
		}
		for j := range after {
			if after[j] != before[i][j] {
				t.Fatalf("query %d row %d: %+v after spill, %+v before", i, j, after[j], before[i][j])
			}
		}
		if q.Code == "absent" && (stats.Skipped != stats.Segments || stats.Segments != len(ss.segs)+1) {
			t.Fatalf("absent-code query: %+v over %d sealed segments and a tail", stats, len(ss.segs))
		}
	}

	// Spilling again under the same budget is a no-op.
	if n, err := ss.SpillOver(resident/4, dir); err != nil || n != 0 {
		t.Fatalf("second SpillOver = %d, %v", n, err)
	}
}

// TestSpillRequiresSealed pins what SpillOver may spill: sealed
// segments with rows whose files are committed, never the unsealed tail
// or an empty checkpoint segment, whatever the budget.
func TestSpillRequiresSealed(t *testing.T) {
	ss := &SegmentSet{SealRows: 8}
	dir := t.TempDir()
	mustSeal(t, ss) // an empty checkpoint segment
	appendRow(t, ss, testRow{1, 100, "a", "L", 1, 6})
	if n, err := ss.SpillOver(0, dir); err != nil || n != 0 {
		t.Fatalf("SpillOver with only a tail and an empty segment = %d, %v; want 0", n, err)
	}
	if got := ss.ResidentBytes(); got != RowBytes {
		t.Fatalf("ResidentBytes = %d, want one row's %d", got, RowBytes)
	}
	mustSeal(t, ss)
	// A spill writes nothing: a segment whose file was never committed
	// cannot spill, and stays resident.
	if n, err := ss.SpillOver(0, dir); err == nil || n != 0 || ss.ResidentBytes() != RowBytes {
		t.Fatalf("SpillOver before the commit = %d, %v; want an error and nothing spilled", n, err)
	}
	commitSealed(t, ss, dir)
	if n, err := ss.SpillOver(0, dir); err != nil || n != 1 {
		t.Fatalf("SpillOver after Seal = %d, %v; want 1", n, err)
	}
	if got := ss.ResidentBytes(); got != 0 {
		t.Fatalf("ResidentBytes after the spill = %d, want 0", got)
	}
	if ss.segs[0].Path() != "" || ss.segs[1].Path() == "" {
		t.Fatal("the empty segment spilled, or the sealed one did not")
	}
}
