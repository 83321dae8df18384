package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/filter"
	"repro/internal/joblog"
	"repro/internal/simulate"
	"repro/internal/symtab"
)

// buildStream replays a campaign's logs the way internal/serve does —
// fatal records through the incremental cascade, jobs through the
// occupancy builder in byEnd order — and returns the StreamInput a
// publication would consume.
func buildStream(t *testing.T, cfg Config, camp *simulate.Campaign) StreamInput {
	t.Helper()
	tab := symtab.NewTable()
	inc := filter.NewIncremental(cfg.Filter, tab)
	fatal := camp.RAS.Fatal()
	for i := range fatal {
		if err := inc.Feed(&fatal[i]); err != nil {
			t.Fatalf("Feed(%d): %v", i, err)
		}
	}
	var ob OccupancyBuilder
	for _, j := range camp.Jobs.All() {
		ob.Add(j)
	}
	events, stats := inc.Snapshot()
	rFirst, rLast := camp.RAS.Span()
	jFirst, jLast := camp.Jobs.Span()
	start, end := UnionSpan(rFirst, rLast, jFirst, jLast)
	return StreamInput{
		Tab:         tab.Clone(),
		Events:      events,
		FilterStats: stats,
		Jobs:        joblog.NewLog(camp.Jobs.All()),
		Occupancy:   ob.Snapshot(),
		SpanStart:   start,
		SpanEnd:     end,
	}
}

// TestAnalyzeStreamMatchesAnalyze pins the streaming analysis contract:
// an Analysis assembled from incrementally maintained state equals
// Analyze over the same campaign in every exported field and in the
// occupancy-dependent internals (including the unstable per-midplane
// sort permutation, which both sides must reproduce identically).
func TestAnalyzeStreamMatchesAnalyze(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			camp, err := simulate.Run(simulate.Config{Seed: seed, Days: 10, NoisePerFatal: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			want, err := Analyze(cfg, camp.RAS, camp.Jobs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AnalyzeStream(cfg, buildStream(t, cfg, camp))
			if err != nil {
				t.Fatal(err)
			}

			if got.FilterStats != want.FilterStats {
				t.Fatalf("FilterStats = %+v, want %+v", got.FilterStats, want.FilterStats)
			}
			if len(got.Events) != len(want.Events) {
				t.Fatalf("%d events, want %d", len(got.Events), len(want.Events))
			}
			for i := range got.Events {
				if !reflect.DeepEqual(got.Events[i], want.Events[i]) {
					t.Fatalf("event %d = %+v, want %+v", i, *got.Events[i], *want.Events[i])
				}
			}
			if len(got.Interruptions) != len(want.Interruptions) {
				t.Fatalf("%d interruptions, want %d", len(got.Interruptions), len(want.Interruptions))
			}
			for i := range got.Interruptions {
				g, w := got.Interruptions[i], want.Interruptions[i]
				if g.Job.ID != w.Job.ID || g.Exec != w.Exec || g.JobID != w.JobID ||
					!reflect.DeepEqual(g.Event, w.Event) {
					t.Fatalf("interruption %d = %+v, want %+v", i, g, w)
				}
			}
			if !reflect.DeepEqual(got.Identification, want.Identification) {
				t.Fatalf("Identification diverges:\n got %+v\nwant %+v", got.Identification, want.Identification)
			}
			if !reflect.DeepEqual(got.Classification, want.Classification) {
				t.Fatalf("Classification diverges:\n got %+v\nwant %+v", got.Classification, want.Classification)
			}
			if !reflect.DeepEqual(got.Independent, want.Independent) {
				t.Fatalf("Independent diverges: %d events, want %d", len(got.Independent), len(want.Independent))
			}
			if !reflect.DeepEqual(got.JobRedundant, want.JobRedundant) {
				t.Fatalf("JobRedundant diverges: %d events, want %d", len(got.JobRedundant), len(want.JobRedundant))
			}
			if !reflect.DeepEqual(got.Syms, want.Syms) {
				t.Fatal("frozen symbol tables diverge")
			}
			gs, ge := got.Span()
			ws, we := want.Span()
			if !gs.Equal(ws) || !ge.Equal(we) {
				t.Fatalf("span = [%v, %v], want [%v, %v]", gs, ge, ws, we)
			}
			// The occupancy index permutation is observable through the
			// per-midplane lazy derivations; compare it directly.
			if !reflect.DeepEqual(got.occupancy.perMp, want.occupancy.perMp) {
				t.Fatal("occupancy per-midplane permutations diverge")
			}
			if !reflect.DeepEqual(got.occupancy.byEnd, want.occupancy.byEnd) {
				t.Fatal("occupancy byEnd diverges")
			}
		})
	}
}

// TestOccupancySnapshotIsolation pins that a snapshot never observes
// jobs added after it was taken, and that re-snapshotting without new
// adds shares the cached sorted lists.
func TestOccupancySnapshotIsolation(t *testing.T) {
	t.Parallel()
	camp, err := simulate.Run(simulate.Config{Seed: 5, Days: 6, NoisePerFatal: 0})
	if err != nil {
		t.Fatal(err)
	}
	jobs := camp.Jobs.All()
	if len(jobs) < 10 {
		t.Fatalf("campaign too quiet: %d jobs", len(jobs))
	}
	var ob OccupancyBuilder
	half := len(jobs) / 2
	for _, j := range jobs[:half] {
		ob.Add(j)
	}
	snap := ob.Snapshot()
	if got := len(snap.ix.byEnd); got != half {
		t.Fatalf("snapshot sees %d jobs, want %d", got, half)
	}
	before := make([][]joblog.Job, len(snap.ix.perMp))
	for mp := range snap.ix.perMp {
		before[mp] = append([]joblog.Job(nil), snap.ix.perMp[mp]...)
	}
	for _, j := range jobs[half:] {
		ob.Add(j)
	}
	if got := len(snap.ix.byEnd); got != half {
		t.Fatalf("snapshot grew to %d jobs after later adds", got)
	}
	for mp := range snap.ix.perMp {
		if !reflect.DeepEqual(before[mp], snap.ix.perMp[mp]) {
			t.Fatalf("midplane %d list changed under an existing snapshot", mp)
		}
	}
	// A full-log snapshot lists, per midplane, exactly the jobs whose
	// partition covers it, sorted by StartTime.
	full := ob.Snapshot()
	for mp, js := range full.ix.perMp {
		want := map[int64]bool{}
		for _, j := range jobs {
			if j.OnMidplane(mp) {
				want[j.ID] = true
			}
		}
		if len(js) != len(want) {
			t.Fatalf("midplane %d lists %d jobs, want %d", mp, len(js), len(want))
		}
		for k, j := range js {
			if !want[j.ID] {
				t.Fatalf("midplane %d lists job %d, which does not run there", mp, j.ID)
			}
			if k > 0 && j.StartTime.Before(js[k-1].StartTime) {
				t.Fatalf("midplane %d list not sorted by StartTime at %d", mp, k)
			}
		}
	}
}
