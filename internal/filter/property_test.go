package filter

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bgp"
	"repro/internal/raslog"
	"repro/internal/symtab"
)

// randomFatalStream builds a time-sorted fatal record stream with a few
// codes and locations, including bursts.
func randomFatalStream(seed int64, n int) []raslog.Record {
	rng := rand.New(rand.NewSource(seed))
	codes := []string{"a", "b", "c", "d"}
	var recs []raslog.Record
	at := t0
	for i := 0; i < n; i++ {
		// Alternate tight bursts and long gaps.
		if rng.Intn(4) == 0 {
			at = at.Add(time.Duration(rng.Intn(3600*12)) * time.Second)
		} else {
			at = at.Add(time.Duration(rng.Intn(90)) * time.Second)
		}
		recs = append(recs, raslog.Record{
			RecID: int64(i + 1), MsgID: "M", Component: raslog.CompKernel,
			ErrCode: codes[rng.Intn(len(codes))], Severity: raslog.SevFatal,
			EventTime: at,
			Location:  bgp.MidplaneLocation(rng.Intn(8)).String(),
		})
	}
	return recs
}

func TestTemporalIdempotentOnItsOutputQuick(t *testing.T) {
	// Property: re-running temporal filtering over the cluster heads of
	// its own output changes nothing (one event per surviving head).
	f := func(seed int64) bool {
		recs := randomFatalStream(seed, 200)
		tab := symtab.NewTable()
		first, _ := Pipeline(temporalOnly(5*time.Minute), tab, recs)
		// Rebuild records from the event heads.
		heads := make([]raslog.Record, 0, len(first))
		for _, ev := range first {
			heads = append(heads, raslog.Record{
				MsgID: "M", Component: ev.Component, ErrCode: tab.Errcodes.Name(ev.Code),
				Severity: raslog.SevFatal, EventTime: ev.First,
				Location: bgp.MidplaneLocation(ev.Midplanes[0]).String(),
			})
		}
		second, _ := Pipeline(temporalOnly(5*time.Minute), symtab.NewTable(), heads)
		// Heads may still merge if two clusters of the same key start
		// within the window of each other — never more events.
		return len(second) <= len(first)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineNeverGrowsQuick(t *testing.T) {
	// Property: each stage only removes events, and the funnel's last
	// count is the output.
	f := func(seed int64) bool {
		recs := randomFatalStream(seed, 300)
		evs, st := Pipeline(DefaultConfig(), symtab.NewTable(), recs)
		return st.Input == len(recs) && st.AfterTemporal <= st.Input &&
			st.AfterSpatial <= st.AfterTemporal && st.AfterCausality <= st.AfterSpatial &&
			len(evs) == st.AfterCausality
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineConservesRecordMassQuick(t *testing.T) {
	// Property: the sizes of temporal-spatial clusters sum to the input
	// record count (causality is disabled so every cluster survives).
	f := func(seed int64) bool {
		recs := randomFatalStream(seed, 250)
		cfg := DefaultConfig()
		cfg.CausalityMinSupport = math.MaxInt
		evs, st := Pipeline(cfg, symtab.NewTable(), recs)
		total := 0
		for _, ev := range evs {
			total += ev.Size
		}
		return total == len(recs) && len(evs) == st.AfterSpatial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEventsTimeOrderedAndMidplanesSortedQuick(t *testing.T) {
	f := func(seed int64) bool {
		recs := randomFatalStream(seed, 250)
		evs, _ := Pipeline(DefaultConfig(), symtab.NewTable(), recs)
		for i, ev := range evs {
			if i > 0 && ev.First.Before(evs[i-1].First) {
				return false
			}
			for j := 1; j < len(ev.Midplanes); j++ {
				if ev.Midplanes[j-1] >= ev.Midplanes[j] {
					return false
				}
			}
			if ev.Last.Before(ev.First) || ev.Size < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTemporalZeroWindowKeepsEverything(t *testing.T) {
	recs := randomFatalStream(1, 100)
	// With a zero window, only records at the *same instant* merge.
	evs, _ := Pipeline(temporalOnly(0), symtab.NewTable(), recs)
	distinct := map[string]int{}
	for _, r := range recs {
		distinct[r.Location+"|"+r.ErrCode+"|"+r.EventTime.String()]++
	}
	if len(evs) != len(distinct) {
		t.Errorf("zero-window temporal: %d events, want %d", len(evs), len(distinct))
	}
}
