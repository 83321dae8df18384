package filter

// The reference cascade: the implementation this package had before the
// symtab refactor, kept verbatim in structure — struct keys of raw
// strings, string-keyed maps in every stage, one naive batch pass per
// stage with a stable time sort in between. It shares nothing with the
// production cascade but mergeInts, so it is the independent oracle
// Pipeline and every Incremental snapshot are checked against.

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/raslog"
	"repro/internal/simulate"
	"repro/internal/symtab"
)

// checkReference asserts that got and gotSt — a cascade result over
// recs whose symbols were interned into tab — equal the reference
// cascade over recs: the stats funnel, and each event's code name,
// component, span, size and midplanes. It also asserts tab's numbering
// is first-seen order over recs (ERRCODEs and locations each), computed
// directly from the stream.
func checkReference(t *testing.T, label string, cfg Config, tab *symtab.Table, recs []raslog.Record, got []*Event, gotSt Stats) {
	t.Helper()
	tEv := legacyTemporal(cfg.TemporalWindow, recs)
	sEv := legacySpatial(cfg.SpatialWindow, tEv)
	want := legacyCausality(cfg.CausalityWindow, legacyMine(cfg, sEv), sEv)
	wantSt := Stats{Input: len(recs), AfterTemporal: len(tEv), AfterSpatial: len(sEv), AfterCausality: len(want)}
	if gotSt != wantSt {
		t.Fatalf("%s: stats = %+v, want %+v", label, gotSt, wantSt)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		wantCode, ok := tab.Errcodes.Lookup(w.Code)
		if !ok || g.Code != wantCode || g.Component != w.Component ||
			!g.First.Equal(w.First) || !g.Last.Equal(w.Last) || g.Size != w.Size ||
			!slices.Equal(g.Midplanes, w.Midplanes) {
			t.Fatalf("%s: event %d = {%s %v %v..%v size %d mp %v}, want %+v", label, i,
				tab.Errcodes.Name(g.Code), g.Component, g.First, g.Last, g.Size, g.Midplanes, *w)
		}
	}
	var codes, locs []string
	seenCode, seenLoc := map[string]bool{}, map[string]bool{}
	for i := range recs {
		r := &recs[i]
		if !seenCode[r.ErrCode] {
			seenCode[r.ErrCode] = true
			codes = append(codes, r.ErrCode)
		}
		if !seenLoc[r.Location] {
			seenLoc[r.Location] = true
			locs = append(locs, r.Location)
		}
	}
	if g := tab.Errcodes.Names(); !slices.Equal(g, codes) {
		t.Fatalf("%s: errcode numbering %q, want first-seen %q", label, g, codes)
	}
	if g := tab.Locations.Names(); !slices.Equal(g, locs) {
		t.Fatalf("%s: location numbering %q, want first-seen %q", label, g, locs)
	}
}

// TestPipelineMatchesReference checks Pipeline against the reference
// cascade over whole streams: simulated 30-day campaigns, random
// bursty streams and the benchmark corpus.
func TestPipelineMatchesReference(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	check := func(label string, recs []raslog.Record) {
		tab := symtab.NewTable()
		evs, st := Pipeline(cfg, tab, recs)
		checkReference(t, label, cfg, tab, recs, evs, st)
	}
	for _, seed := range []int64{1, 7, 23} {
		camp, err := simulate.Run(simulate.Config{Seed: seed, Days: 30, NoisePerFatal: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("campaign seed %d", seed), camp.RAS.Fatal())
	}
	for seed := int64(1); seed <= 50; seed++ {
		check(fmt.Sprintf("random seed %d", seed), randomFatalStream(seed, 500))
	}
	check("bench corpus", benchFatalStream(10000))
}

// legacyEvent mirrors Event with the pre-refactor string Code.
type legacyEvent struct {
	Code        string
	Component   raslog.Component
	First, Last time.Time
	Midplanes   []int
	Size        int
}

type legacyLocKey struct{ loc, code string }

type legacyPair struct{ a, b string }

func legacyTemporal(window time.Duration, recs []raslog.Record) []*legacyEvent {
	open := make(map[legacyLocKey]*legacyEvent)
	lastSeen := make(map[legacyLocKey]time.Time)
	var out []*legacyEvent
	for i := range recs {
		r := &recs[i]
		k := legacyLocKey{loc: r.Location, code: r.ErrCode}
		ev, ok := open[k]
		if ok && r.EventTime.Sub(lastSeen[k]) <= window {
			ev.Last = r.EventTime
			ev.Size++
			lastSeen[k] = r.EventTime
			continue
		}
		ev = &legacyEvent{
			Code: r.ErrCode, Component: r.Component,
			First: r.EventTime, Last: r.EventTime,
			Midplanes: raslog.LocationMidplanes(r.Location), Size: 1,
		}
		open[k] = ev
		lastSeen[k] = r.EventTime
		out = append(out, ev)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].First.Before(out[j].First) })
	return out
}

func legacySpatial(window time.Duration, events []*legacyEvent) []*legacyEvent {
	open := make(map[string]*legacyEvent)
	var out []*legacyEvent
	for _, ev := range events {
		cur, ok := open[ev.Code]
		if ok && ev.First.Sub(cur.Last) <= window {
			if ev.Last.After(cur.Last) {
				cur.Last = ev.Last
			}
			cur.Size += ev.Size
			cur.Midplanes = mergeInts(cur.Midplanes, ev.Midplanes)
			continue
		}
		merged := &legacyEvent{
			Code: ev.Code, Component: ev.Component,
			First: ev.First, Last: ev.Last,
			Midplanes: append([]int(nil), ev.Midplanes...), Size: ev.Size,
		}
		open[ev.Code] = merged
		out = append(out, merged)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].First.Before(out[j].First) })
	return out
}

func legacyMine(cfg Config, events []*legacyEvent) map[legacyPair]bool {
	co := make(map[legacyPair]int)
	total := make(map[string]int)
	for i, ev := range events {
		total[ev.Code]++
		seen := make(map[string]bool)
		for j := i - 1; j >= 0; j-- {
			lead := events[j]
			if ev.First.Sub(lead.First) > cfg.CausalityWindow {
				break
			}
			if lead.Code == ev.Code || seen[lead.Code] {
				continue
			}
			seen[lead.Code] = true
			co[legacyPair{lead.Code, ev.Code}]++
		}
	}
	rules := make(map[legacyPair]bool)
	for p, n := range co {
		if n < cfg.CausalityMinSupport {
			continue
		}
		if float64(n)/float64(total[p.b]) < cfg.CausalityMinConfidence {
			continue
		}
		rules[p] = true
	}
	return rules
}

func legacyCausality(window time.Duration, rules map[legacyPair]bool, events []*legacyEvent) []*legacyEvent {
	pairs := make([]legacyPair, 0, len(rules))
	for p := range rules {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].b != pairs[j].b {
			return pairs[i].b < pairs[j].b
		}
		return pairs[i].a < pairs[j].a
	})
	leadersOf := make(map[string][]string)
	for _, p := range pairs {
		leadersOf[p.b] = append(leadersOf[p.b], p.a)
	}
	lastAt := make(map[string]time.Time)
	var out []*legacyEvent
	for _, ev := range events {
		drop := false
		for _, lead := range leadersOf[ev.Code] {
			if t, ok := lastAt[lead]; ok && ev.First.Sub(t) <= window && ev.First.After(t) {
				drop = true
				break
			}
		}
		lastAt[ev.Code] = ev.First
		if !drop {
			out = append(out, ev)
		}
	}
	return out
}
