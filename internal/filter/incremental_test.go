package filter

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/raslog"
	"repro/internal/simulate"
	"repro/internal/store"
	"repro/internal/symtab"
)

// feedAll feeds every record, failing the test on a rejection.
func feedAll(t *testing.T, inc *Incremental, recs []raslog.Record) {
	t.Helper()
	for i := range recs {
		if err := inc.Feed(&recs[i]); err != nil {
			t.Fatalf("Feed(%d): %v", i, err)
		}
	}
}

// checkEquivalent asserts a snapshot of inc equals the reference
// cascade over the same prefix, including first-seen symtab numbering.
func checkEquivalent(t *testing.T, label string, cfg Config, inc *Incremental, incTab *symtab.Table, prefix []raslog.Record) {
	t.Helper()
	ev, st := inc.Snapshot()
	checkReference(t, label, cfg, incTab, prefix, ev, st)
}

// TestIncrementalMatchesPipeline pins the streaming cascade's contract:
// at any prefix of a simulated campaign's fatal stream — including
// mid-burst points where temporal and spatial clusters are still open —
// Snapshot equals the reference cascade over that prefix, and
// interleaved snapshots never perturb later results.
func TestIncrementalMatchesPipeline(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			camp, err := simulate.Run(simulate.Config{Seed: seed, Days: 8, NoisePerFatal: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			fatal := camp.RAS.Fatal()
			if len(fatal) < 20 {
				t.Fatalf("campaign too quiet: %d fatal records", len(fatal))
			}
			cfg := DefaultConfig()
			tab := symtab.NewTable()
			inc := NewIncremental(cfg, tab)

			// Snapshot at a handful of random interior prefixes plus the
			// awkward ones (first record, last record).
			rng := rand.New(rand.NewSource(seed))
			points := map[int]bool{1: true, len(fatal): true}
			for i := 0; i < 5; i++ {
				points[1+rng.Intn(len(fatal))] = true
			}
			for i := range fatal {
				if err := inc.Feed(&fatal[i]); err != nil {
					t.Fatalf("Feed(%d): %v", i, err)
				}
				if points[i+1] {
					checkEquivalent(t, fmt.Sprintf("prefix %d/%d", i+1, len(fatal)), cfg, inc, tab, fatal[:i+1])
				}
			}
			// A second full snapshot: the first must not have perturbed
			// anything.
			checkEquivalent(t, "final (repeat)", cfg, inc, tab, fatal)
		})
	}
}

// TestIncrementalSyntheticBoundaries drives the cascade with a crafted
// stream that sits on the window edges: same-timestamp records, gaps of
// exactly the temporal and spatial windows (merges: the batch condition
// is <=), one nanosecond past them (splits), and code interleavings
// that exercise supersession and the causality lookback dedup.
func TestIncrementalSyntheticBoundaries(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.CausalityMinSupport = 2
	cfg.CausalityMinConfidence = 0.5
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	codes := []string{"_bgp_err_a", "_bgp_err_b", "_bgp_err_c"}
	locs := []string{"R00-M0", "R00-M1", "R01-M0-N04", "R23-M1-N08-J09"}
	gaps := []time.Duration{
		0, time.Second,
		cfg.TemporalWindow, cfg.TemporalWindow + time.Nanosecond,
		cfg.SpatialWindow, cfg.SpatialWindow + time.Nanosecond,
		cfg.CausalityWindow, cfg.CausalityWindow + time.Nanosecond,
	}
	rng := rand.New(rand.NewSource(42))
	var recs []raslog.Record
	now := base
	for i := 0; i < 400; i++ {
		now = now.Add(gaps[rng.Intn(len(gaps))])
		recs = append(recs, raslog.Record{
			RecID:     int64(i + 1),
			Component: raslog.CompKernel,
			ErrCode:   codes[rng.Intn(len(codes))],
			Severity:  raslog.SevFatal,
			EventTime: now,
			Location:  locs[rng.Intn(len(locs))],
		})
	}

	tab := symtab.NewTable()
	inc := NewIncremental(cfg, tab)
	for i := range recs {
		if err := inc.Feed(&recs[i]); err != nil {
			t.Fatalf("Feed(%d): %v", i, err)
		}
		// Snapshot at every 37th record keeps the shadow path hot.
		if i%37 == 0 {
			checkEquivalent(t, fmt.Sprintf("prefix %d", i+1), cfg, inc, tab, recs[:i+1])
		}
	}
	checkEquivalent(t, "final", cfg, inc, tab, recs)
}

// TestIncrementalRejectsRegression pins the order contract: a record
// behind the watermark is rejected and leaves the state untouched.
func TestIncrementalRejectsRegression(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	mk := func(id int64, at time.Time) raslog.Record {
		return raslog.Record{
			RecID: id, Component: raslog.CompKernel, ErrCode: "_bgp_err_a",
			Severity: raslog.SevFatal, EventTime: at, Location: "R00-M0",
		}
	}
	tab := symtab.NewTable()
	inc := NewIncremental(cfg, tab)
	r1 := mk(1, base)
	r2 := mk(2, base.Add(time.Minute))
	feedAll(t, inc, []raslog.Record{r1, r2})

	evBefore, stBefore := inc.Snapshot()
	old := mk(3, base.Add(30*time.Second))
	if err := inc.Feed(&old); err == nil {
		t.Fatal("Feed accepted a record behind the watermark")
	}
	sameTimeOlderID := mk(1, base.Add(time.Minute))
	if err := inc.Feed(&sameTimeOlderID); err == nil {
		t.Fatal("Feed accepted a same-time record with a smaller RecID")
	}
	evAfter, stAfter := inc.Snapshot()
	if stBefore != stAfter || !reflect.DeepEqual(evBefore, evAfter) {
		t.Fatal("rejected Feed perturbed the cascade state")
	}
	if inc.Input() != 2 {
		t.Fatalf("Input() = %d after rejections, want 2", inc.Input())
	}

	// Equal (time, RecID) duplicates are within the contract: the batch
	// sort is stable, so a re-sent boundary record must be accepted.
	dup := mk(2, base.Add(time.Minute))
	if err := inc.Feed(&dup); err != nil {
		t.Fatalf("Feed rejected an equal-(time,RecID) record: %v", err)
	}
}

// realisticRecID is a RecID of a production-sized log. Go boxes
// integers below 256 and prints one-digit strings without allocating,
// so an allocation test fed small IDs cannot see a RecID that is boxed
// or formatted.
const realisticRecID = 1<<40 + 12345

// TestFeedUnparseableLocationAllocFree pins that a location is parsed
// once, when its ID first appears: feeding more records at a location
// that does not parse, inside the temporal window of their cluster,
// allocates nothing.
func TestFeedUnparseableLocationAllocFree(t *testing.T) {
	const loc = "not-a-location"
	if mps := raslog.LocationMidplanes(loc); mps != nil {
		t.Fatalf("%q parses to %v; the test needs an unparseable location", loc, mps)
	}
	inc := NewIncremental(DefaultConfig(), symtab.NewTable())
	r := rec("_bgp_err_a", loc, 0)
	r.RecID = realisticRecID
	feedAll(t, inc, []raslog.Record{r})
	allocs := testing.AllocsPerRun(100, func() {
		if err := inc.Feed(&r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Feed at an unparseable location: %v allocs/op, want 0", allocs)
	}
	if _, st := inc.Snapshot(); st.Input != 102 || st.AfterTemporal != 1 {
		t.Fatalf("stats %+v, want 102 records in one temporal cluster", st)
	}
}

// TestFeedRowAllocFree pins FeedRow, which every analysis path runs
// once per merged FATAL row, to zero allocations in the steady state: a
// row that extends its open temporal cluster, at a location already
// parsed.
func TestFeedRowAllocFree(t *testing.T) {
	const loc = "R00-M0-N04-J12"
	if raslog.LocationMidplanes(loc) == nil {
		t.Fatalf("%q does not parse; the test needs a midplane location", loc)
	}
	inc := NewIncremental(DefaultConfig(), symtab.NewTable())
	row := store.Row{
		RecID: realisticRecID, TimeNS: t0.UnixNano(), Code: "_bgp_err_a", Loc: loc,
		Comp: int32(raslog.CompKernel), Sev: int32(raslog.SevFatal),
	}
	if err := inc.FeedRow(row); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		row.RecID++
		if err := inc.FeedRow(row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FeedRow: %v allocs/op, want 0", allocs)
	}
	if _, st := inc.Snapshot(); st.Input != 102 || st.AfterTemporal != 1 {
		t.Fatalf("stats %+v, want 102 rows in one temporal cluster", st)
	}
}
