package store

import (
	"testing"

	"repro/internal/symtab"
)

func TestEventsAppend(t *testing.T) {
	e := NewEvents(2)
	e.Append(1, 100, symtab.ErrcodeID(0), symtab.LocationID(3), 2, 5)
	e.Append(2, 200, symtab.ErrcodeID(1), symtab.LocationID(0), 1, 4)
	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2", e.Len())
	}
	if e.RecID[1] != 2 || e.Time[1] != 200 || e.Code[1] != 1 || e.Loc[1] != 0 || e.Comp[1] != 1 || e.Sev[1] != 4 {
		t.Fatalf("row 1 mismatch: %+v", e)
	}
}

// TestEventsAppendAllocFree pins Append, which every spool flush runs
// once per row, to zero allocations into presized columns. The values
// are far above the 0-255 range Go boxes without allocating.
func TestEventsAppendAllocFree(t *testing.T) {
	const runs = 100
	e := NewEvents(runs + 1) // AllocsPerRun adds one warm-up call
	allocs := testing.AllocsPerRun(runs, func() {
		e.Append(1<<40+7, 1<<60+11, symtab.ErrcodeID(1<<20), symtab.LocationID(1<<21), 1<<10, 1<<11)
	})
	if allocs != 0 {
		t.Fatalf("Append into presized Events: %v allocs/op, want 0", allocs)
	}
	if e.Len() != runs+1 {
		t.Fatalf("Len = %d, want %d", e.Len(), runs+1)
	}
}

func TestSet(t *testing.T) {
	var s Set[symtab.ErrcodeID]
	if s.Has(0) || s.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	if !s.Add(5) {
		t.Fatal("first Add(5) reported duplicate")
	}
	if s.Add(5) {
		t.Fatal("second Add(5) reported new")
	}
	if !s.Has(5) || s.Has(4) || s.Has(6) {
		t.Fatal("membership wrong around 5")
	}
	// Growth across word boundaries.
	for _, id := range []symtab.ErrcodeID{63, 64, 127, 128, 1000} {
		if !s.Add(id) {
			t.Fatalf("Add(%d) reported duplicate", id)
		}
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	for _, id := range []symtab.ErrcodeID{5, 63, 64, 127, 128, 1000} {
		if !s.Has(id) {
			t.Fatalf("Has(%d) = false", id)
		}
	}
	if s.Has(999) || s.Has(1001) {
		t.Fatal("false membership near 1000")
	}

	pre := NewSet[symtab.JobID](100)
	if !pre.Add(99) || pre.Len() != 1 || !pre.Has(99) {
		t.Fatal("pre-sized set misbehaves")
	}
}
