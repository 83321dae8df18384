package main

import (
	"math"
	"testing"
	"time"
)

func TestLedgerSelfTimeOfNestedSpans(t *testing.T) {
	// run 0..10: a 0..6 holding b 1..3 and c 3..5 (c holds d 3.5..4.5),
	// then a second a 7..9 with no children; 6..7 and 9..10 are outside
	// every span.
	spans := []*span{
		{ID: 1, Name: "a", Busy: 6},
		{ID: 2, Parent: 1, Name: "b", Busy: 2, In: 4, Out: 2},
		{ID: 3, Parent: 1, Name: "c", Busy: 2},
		{ID: 4, Parent: 3, Name: "d", Busy: 1, Alloc: 10},
		{ID: 5, Name: "a", Busy: 2, Alloc: 5},
	}
	rows, attributed := ledger(spans)
	want := []ledgerRow{
		{Name: "a", Self: 2 + 2, Busy: 8, Calls: 2, Alloc: 5},
		{Name: "b", Self: 2, Busy: 2, Calls: 1, In: 4, Out: 2},
		{Name: "c", Self: 1, Busy: 2, Calls: 1},
		{Name: "d", Self: 1, Busy: 1, Calls: 1, Alloc: 10},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
	if attributed != 8 {
		t.Errorf("attributed = %v, want 8 (total 10 less 2 outside any span)", attributed)
	}
}

func TestTracerAccumulatingSpans(t *testing.T) {
	tr := newTracer("test")
	loop := tr.begin("loop")
	x, y := tr.accum("x"), tr.accum("y")
	mark := time.Now()
	for i := 0; i < 3; i++ {
		time.Sleep(2 * time.Millisecond)
		x.lap(&mark)
		time.Sleep(time.Millisecond)
		y.lap(&mark)
	}
	tr.finish(x, 3)
	tr.finish(y, 3)
	tr.end(loop, 0, 3)

	rows, attributed := ledger(tr.spans)
	lp, rx, ry := row(rows, "loop"), row(rows, "x"), row(rows, "y")
	if rx.In != 3 || ry.Out != 3 || rx.Busy < 0.006 || ry.Busy < 0.003 {
		t.Errorf("x = %+v, y = %+v", rx, ry)
	}
	if math.Abs(lp.Self+rx.Self+ry.Self-lp.Busy) > 1e-9 || math.Abs(attributed-lp.Busy) > 1e-9 {
		t.Errorf("self times %v+%v+%v do not add up to the loop's %v", lp.Self, rx.Self, ry.Self, lp.Busy)
	}
	if x.Parent != loop.ID || y.Parent != loop.ID {
		t.Errorf("accumulating spans not nested in the loop: %+v %+v", x, y)
	}

	// A nil tracer records nothing and its laps read no clock.
	var none *tracer
	s := none.accum("z")
	before := mark
	s.lap(&mark)
	none.finish(s, 1)
	none.end(none.begin("w"), 1, 1)
	if s != nil || mark != before {
		t.Error("nil tracer recorded a span")
	}
}
