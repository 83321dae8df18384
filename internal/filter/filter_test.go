package filter

import (
	"math"
	"testing"
	"time"

	"repro/internal/raslog"
	"repro/internal/symtab"
)

var t0 = time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)

func rec(code, loc string, offset time.Duration) raslog.Record {
	return raslog.Record{
		MsgID: "M", Component: raslog.CompKernel, ErrCode: code,
		Severity: raslog.SevFatal, EventTime: t0.Add(offset), Location: loc,
	}
}

// cid resolves a code name to the ID tab assigned it; the name must
// have been interned by the stage under test.
func cid(t *testing.T, tab *symtab.Table, name string) symtab.ErrcodeID {
	t.Helper()
	id, ok := tab.Errcodes.Lookup(name)
	if !ok {
		t.Fatalf("code %q was never interned", name)
	}
	return id
}

// temporalOnly returns a config under which Pipeline reduces to its
// temporal stage with the given window: no gap is at most the minimum
// Duration, so the spatial stage never merges, and no causality rule
// reaches MaxInt support.
func temporalOnly(window time.Duration) Config {
	cfg := DefaultConfig()
	cfg.TemporalWindow = window
	cfg.SpatialWindow = math.MinInt64
	cfg.CausalityMinSupport = math.MaxInt
	return cfg
}

func TestTemporalCollapsesDuplicates(t *testing.T) {
	recs := []raslog.Record{
		rec("a", "R00-M0", 0),
		rec("a", "R00-M1", 30*time.Second), // different location: own cluster
		rec("b", "R00-M0", 30*time.Second), // different code: own cluster
		rec("a", "R00-M0", time.Minute),    // within window: same cluster
		rec("a", "R00-M0", 3*time.Minute),  // chained: gap 2 min from last
		rec("a", "R00-M0", 20*time.Minute), // new cluster
	}
	evs, st := Pipeline(temporalOnly(5*time.Minute), symtab.NewTable(), recs)
	if len(evs) != 4 || st.AfterTemporal != 4 {
		t.Fatalf("temporal: %d events, stats %+v, want 4", len(evs), st)
	}
	if evs[0].Size != 3 || !evs[0].Last.Equal(t0.Add(3*time.Minute)) {
		t.Errorf("first cluster = size %d last %v", evs[0].Size, evs[0].Last)
	}

	// The full cascade merges the R00-M1 record into the first cluster
	// spatially; the temporal count in the funnel is unchanged.
	evs, st = Pipeline(DefaultConfig(), symtab.NewTable(), recs)
	if st.AfterTemporal != 4 || st.AfterSpatial != 3 || len(evs) != 3 {
		t.Fatalf("cascade: %d events, stats %+v", len(evs), st)
	}
	if evs[0].Size != 4 || len(evs[0].Midplanes) != 2 {
		t.Errorf("first event = size %d midplanes %v", evs[0].Size, evs[0].Midplanes)
	}
}

func TestTemporalSlidingWindow(t *testing.T) {
	// A storm with sub-window gaps but total span above the window must
	// still collapse (the window slides with the last record).
	var recs []raslog.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, rec("a", "R00-M0", time.Duration(i)*4*time.Minute))
	}
	evs, st := Pipeline(DefaultConfig(), symtab.NewTable(), recs)
	if len(evs) != 1 || evs[0].Size != 10 || st.AfterTemporal != 1 {
		t.Fatalf("storm not collapsed: %d events, stats %+v", len(evs), st)
	}
}

func TestSpatialMergesAcrossLocations(t *testing.T) {
	recs := []raslog.Record{
		rec("a", "R00-M0", 0),
		rec("a", "R00-M1", time.Minute),
		rec("b", "R00-M0", time.Minute),
		rec("a", "R01-M0", 2*time.Minute),
		rec("a", "R10-M0", time.Hour), // far later: separate event
	}
	tab := symtab.NewTable()
	evs, st := Pipeline(DefaultConfig(), tab, recs)
	if st.Input != 5 || st.AfterTemporal != 5 || st.AfterSpatial != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if len(evs) != 3 {
		t.Fatalf("pipeline: %d events, want 3", len(evs))
	}
	first := evs[0]
	if first.Code != cid(t, tab, "a") || len(first.Midplanes) != 3 {
		t.Errorf("first event = code %d midplanes %v, want a on 3", first.Code, first.Midplanes)
	}
	// Events must be time-ordered.
	for i := 1; i < len(evs); i++ {
		if evs[i].First.Before(evs[i-1].First) {
			t.Fatal("events not time-ordered")
		}
	}
}

func TestOnMidplane(t *testing.T) {
	evs, _ := Pipeline(DefaultConfig(), symtab.NewTable(), []raslog.Record{rec("a", "R01", 0)})
	if len(evs) != 1 {
		t.Fatal("want one event")
	}
	if !evs[0].OnMidplane(2) || !evs[0].OnMidplane(3) || evs[0].OnMidplane(4) {
		t.Errorf("OnMidplane wrong for rack location: %v", evs[0].Midplanes)
	}
}

// plantedRule returns six rounds of "a", then "b" two minutes later,
// then an unrelated "c" half an hour later: every "b" follows an "a"
// within the causality window, so the cascade mines a->b with support
// 6 and confidence 1.
func plantedRule() []raslog.Record {
	var recs []raslog.Record
	for i := 0; i < 6; i++ {
		base := time.Duration(i) * time.Hour
		recs = append(recs,
			rec("a", "R00-M0", base),
			rec("b", "R00-M1", base+2*time.Minute),
			rec("c", "R02-M0", base+30*time.Minute),
		)
	}
	return recs
}

func TestMineCausalityFindsPlantedRule(t *testing.T) {
	recs := plantedRule()
	// The rule holds at its exact support (6) and full confidence: every
	// "b" is dropped, and no spurious rule touches "c".
	cfg := DefaultConfig()
	cfg.CausalityMinSupport = 6
	cfg.CausalityMinConfidence = 1
	tab := symtab.NewTable()
	evs, st := Pipeline(cfg, tab, recs)
	if st.AfterSpatial != 18 || st.AfterCausality != 12 || len(evs) != 12 {
		t.Fatalf("planted rule: %d events, stats %+v, want 12 of 18", len(evs), st)
	}
	b, c := cid(t, tab, "b"), cid(t, tab, "c")
	nc := 0
	for _, ev := range evs {
		if ev.Code == b {
			t.Errorf("b event at %v survived causality filtering", ev.First)
		}
		if ev.Code == c {
			nc++
		}
	}
	if nc != 6 {
		t.Errorf("kept %d c events, want 6", nc)
	}

	// One more co-occurrence than observed is required: no rule, nothing
	// dropped.
	cfg.CausalityMinSupport = 7
	if _, st := Pipeline(cfg, symtab.NewTable(), recs); st.AfterCausality != 18 {
		t.Errorf("support-7 cascade dropped events: stats %+v", st)
	}
}

func TestCausalityKeepsIndependentFollowers(t *testing.T) {
	// A "b" far from any "a" survives even though a->b is mined (support
	// 6, confidence 6/7).
	recs := append(plantedRule(), rec("b", "R03-M0", 9*time.Hour))
	tab := symtab.NewTable()
	evs, st := Pipeline(DefaultConfig(), tab, recs)
	if st.AfterSpatial != 19 || len(evs) != 13 {
		t.Fatalf("%d events, stats %+v, want 13 of 19", len(evs), st)
	}
	last := evs[len(evs)-1]
	if last.Code != cid(t, tab, "b") || !last.First.Equal(t0.Add(9*time.Hour)) {
		t.Fatalf("independent follower dropped: last event %+v", *last)
	}
}

func TestPipelineCompressionOnStorm(t *testing.T) {
	// A heavy storm: one code, 500 records over 3 minutes from many
	// locations, plus a handful of separate events. Compression should
	// be drastic, as the paper's 98.35%.
	var recs []raslog.Record
	for i := 0; i < 500; i++ {
		loc := "R00-M0"
		if i%3 == 1 {
			loc = "R00-M1"
		} else if i%3 == 2 {
			loc = "R01-M0"
		}
		recs = append(recs, rec("storm", loc, time.Duration(i)*360*time.Millisecond))
	}
	recs = append(recs, rec("other", "R05-M0", 48*time.Hour))
	evs, st := Pipeline(DefaultConfig(), symtab.NewTable(), recs)
	if len(evs) != 2 {
		t.Fatalf("pipeline: %d events, want 2", len(evs))
	}
	if st.CompressionRatio() < 0.95 {
		t.Errorf("compression = %v, want > 0.95", st.CompressionRatio())
	}
}

func TestStatsZero(t *testing.T) {
	evs, st := Pipeline(DefaultConfig(), symtab.NewTable(), nil)
	if len(evs) != 0 || st.CompressionRatio() != 0 {
		t.Errorf("empty pipeline: %d events, ratio %v", len(evs), st.CompressionRatio())
	}
}

// TestPipelinePanicsOnUnsortedInput pins Pipeline's precondition: a
// record behind its predecessor panics with Feed's error.
func TestPipelinePanicsOnUnsortedInput(t *testing.T) {
	recs := []raslog.Record{rec("a", "R00-M0", time.Minute), rec("a", "R00-M0", 0)}
	var got any
	func() {
		defer func() { got = recover() }()
		Pipeline(DefaultConfig(), symtab.NewTable(), recs)
	}()
	err, ok := got.(error)
	if !ok {
		t.Fatalf("Pipeline over unsorted input: recovered %v, want Feed's error", got)
	}
	inc := NewIncremental(DefaultConfig(), symtab.NewTable())
	feedAll(t, inc, recs[:1])
	want := inc.Feed(&recs[1])
	if want == nil || err.Error() != want.Error() {
		t.Fatalf("panic value %v, want Feed's error %v", err, want)
	}
}
