package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/joblog"
	"repro/internal/simulate"
)

// snapshotAt is a mid-stream occupancy snapshot and the job prefix it
// covers.
type snapshotAt struct {
	ix     *occupancyIndex
	prefix []joblog.Job
	// shared reports whether the builder's job slice had spare capacity
	// when the snapshot was taken: later Adds then write into the array
	// the snapshot views. Otherwise the next Add reallocates and the
	// snapshot keeps the old array.
	shared bool
}

// streamSnapshots adds jobs one by one and snapshots at a third and two
// thirds of the stream, twice when the builder's job slice is full (the
// next Add reallocates), twice right after it reallocated, and at the
// end.
func streamSnapshots(jobs []joblog.Job) []snapshotAt {
	var b OccupancyBuilder
	var out []snapshotAt
	full, grown := 0, 0
	for i, j := range jobs {
		prevCap := cap(b.byEnd)
		b.Add(j)
		take := i == len(jobs)/3 || i == 2*len(jobs)/3
		if i > 32 && cap(b.byEnd) != prevCap && grown < 2 {
			grown++
			take = true
		}
		if i > 32 && len(b.byEnd) == cap(b.byEnd) && full < 2 {
			full++
			take = true
		}
		if take {
			out = append(out, snapshotAt{
				ix: b.Snapshot().ix, prefix: jobs[:i+1], shared: len(b.byEnd) < cap(b.byEnd),
			})
		}
	}
	return append(out, snapshotAt{ix: b.Snapshot().ix, prefix: jobs})
}

// TestOccupancyQueriesMatchNaiveScan checks runningOn, endedWithin and
// ranCleanBetween against linear scans over the covered job prefix, for
// random probes on several campaigns and on snapshots taken mid-stream,
// both before and after the builder's job slice reallocates. Every
// snapshot is probed after the whole stream was added.
func TestOccupancyQueriesMatchNaiveScan(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			camp, err := simulate.Run(simulate.Config{Seed: seed, Days: 10, NoisePerFatal: 0})
			if err != nil {
				t.Fatal(err)
			}
			jobs := camp.Jobs.All()
			snaps := streamSnapshots(jobs)
			shared, moved := 0, 0
			for _, s := range snaps[:len(snaps)-1] {
				if s.shared {
					shared++
				} else {
					moved++
				}
			}
			if shared == 0 || moved == 0 {
				t.Fatalf("mid-stream snapshots: %d sharing the builder's array, %d left behind by a reallocation; want both", shared, moved)
			}
			first, last := camp.Jobs.Span()
			rng := rand.New(rand.NewSource(seed))
			late := rand.New(rand.NewSource(seed + 1))
			endedBefore := 0
			for si, s := range snaps {
				if len(s.ix.byEnd) != len(s.prefix) {
					t.Fatalf("snapshot %d sees %d jobs, want %d", si, len(s.ix.byEnd), len(s.prefix))
				}
				checkLists(t, s)
				interrupted := map[int64]bool{}
				for _, j := range s.prefix {
					if rng.Intn(4) == 0 {
						interrupted[j.ID] = true
					}
				}
				// Half the probes land on a covered job's own midplane
				// and instants: its start, its end, and the minute
				// before its end, where inline kills leave overlapping
				// tails. The rest are uniform over the campaign.
				instant := func() (int, time.Time) {
					if rng.Intn(2) == 0 {
						return rng.Intn(bgp.NumMidplanes), first.Add(time.Duration(rng.Int63n(int64(last.Sub(first)) + 1)))
					}
					j := s.prefix[rng.Intn(len(s.prefix))]
					mp := j.Partition.Start + rng.Intn(j.Partition.Size)
					switch rng.Intn(3) {
					case 0:
						return mp, j.StartTime
					case 1:
						return mp, j.EndTime
					default:
						return mp, j.EndTime.Add(-time.Duration(rng.Int63n(int64(time.Minute))))
					}
				}
				for n := 0; n < 600; n++ {
					mp, at := instant()
					checkRunningOn(t, s, mp, at)
					_, from := instant()
					if from.After(at) {
						from, at = at, from
					}
					checkEndedWithin(t, s, mp, from, at)
					checkRanClean(t, s, mp, from, at, interrupted)
				}
				// Short windows late in the covered prefix, most of whose
				// midplane's jobs ended before the window opens: some
				// open at a late job's end, some exactly at a prefix
				// maximum of EndTime (a tie with an earlier job's end).
				for n := 0; n < 300; n++ {
					j := s.prefix[len(s.prefix)-1-late.Intn(len(s.prefix)/4+1)]
					mp := j.Partition.Start + late.Intn(j.Partition.Size)
					from := j.EndTime.Add(-time.Duration(late.Int63n(int64(10 * time.Minute))))
					if ends := s.ix.maxEnd[mp]; n%2 == 0 {
						from = ends[len(ends)-1-late.Intn(len(ends)/4+1)]
					}
					for _, e := range s.prefix {
						if e.OnMidplane(mp) && e.EndTime.Before(from) {
							endedBefore++
						}
					}
					checkEndedWithin(t, s, mp, from, from.Add(time.Duration(late.Int63n(int64(20*time.Minute)))))
				}
			}
			if endedBefore < 20*len(snaps)*300 {
				t.Fatalf("late windows: %d jobs ended before the window opened over %d probes; want at least 20 per probe",
					endedBefore, len(snaps)*300)
			}
		})
	}
}

// checkLists verifies a snapshot's per-midplane lists against its job
// prefix: every position inside the view, each list in StartTime
// order, and exactly the prefix's jobs on that midplane.
func checkLists(t *testing.T, s snapshotAt) {
	t.Helper()
	for mp, ps := range s.ix.perMp {
		var got, want []int64
		for k, p := range ps {
			if int(p) >= len(s.prefix) {
				t.Fatalf("midplane %d holds position %d beyond the %d-job view", mp, p, len(s.prefix))
			}
			if k > 0 && s.ix.byEnd[p].StartTime.Before(s.ix.byEnd[ps[k-1]].StartTime) {
				t.Fatalf("midplane %d list not in StartTime order at %d", mp, k)
			}
			got = append(got, s.ix.byEnd[p].ID)
		}
		for _, j := range s.prefix {
			if j.OnMidplane(mp) {
				want = append(want, j.ID)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("midplane %d lists jobs %v, want %v", mp, got, want)
		}
	}
}

func checkRunningOn(t *testing.T, s snapshotAt, mp int, at time.Time) {
	t.Helper()
	want := false
	for _, j := range s.prefix {
		if j.RunningAt(at) && j.OnMidplane(mp) {
			want = true
			break
		}
	}
	j, ok := s.ix.runningOn(mp, at)
	if ok != want {
		t.Fatalf("runningOn(%d, %v) = %v over %d jobs, naive scan says %v", mp, at, ok, len(s.prefix), want)
	}
	if ok && (!j.RunningAt(at) || !j.OnMidplane(mp)) {
		t.Fatalf("runningOn(%d, %v) returned job %d, not running there", mp, at, j.ID)
	}
}

func checkEndedWithin(t *testing.T, s snapshotAt, mp int, from, to time.Time) {
	t.Helper()
	var want []int64
	for _, j := range s.prefix {
		if j.OnMidplane(mp) && !j.EndTime.Before(from) && !j.EndTime.After(to) {
			want = append(want, j.ID)
		}
	}
	var got []int64
	ps := s.ix.endedWithin(mp, from, to)
	for k, p := range ps {
		got = append(got, s.ix.byEnd[p].ID)
		if k > 0 && s.ix.byEnd[p].StartTime.Before(s.ix.byEnd[ps[k-1]].StartTime) {
			t.Fatalf("endedWithin(%d) not in StartTime order", mp)
		}
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("endedWithin(%d, %v, %v) = %v, naive scan %v", mp, from, to, got, want)
	}
}

func checkRanClean(t *testing.T, s snapshotAt, mp int, from, to time.Time, interrupted map[int64]bool) {
	t.Helper()
	want := false
	for _, j := range s.prefix {
		if j.OnMidplane(mp) && j.StartTime.After(from) && !j.StartTime.After(to) &&
			j.EndTime.Before(to) && !interrupted[j.ID] {
			want = true
			break
		}
	}
	if got := s.ix.ranCleanBetween(mp, from, to, interrupted); got != want {
		t.Fatalf("ranCleanBetween(%d, %v, %v) = %v, naive scan %v", mp, from, to, got, want)
	}
}

// TestOccupancyPermutationMatchesJobSort pins that sorting positions
// reproduces the permutation a sort of the jobs themselves gives, ties
// in StartTime included: the per-midplane lists feed order-sensitive
// derivations and the goldens.
func TestOccupancyPermutationMatchesJobSort(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		camp, err := simulate.Run(simulate.Config{Seed: seed, Days: 10, NoisePerFatal: 0})
		if err != nil {
			t.Fatal(err)
		}
		ix := occupancyOf(camp.Jobs)
		for mp := range ix.perMp {
			var js []joblog.Job
			for _, j := range camp.Jobs.All() {
				if j.OnMidplane(mp) {
					js = append(js, j)
				}
			}
			sort.Slice(js, func(a, c int) bool { return js[a].StartTime.Before(js[c].StartTime) })
			got := make([]joblog.Job, 0, len(js))
			for _, p := range ix.perMp[mp] {
				got = append(got, ix.byEnd[p])
			}
			if !reflect.DeepEqual(got, js) {
				t.Fatalf("seed %d midplane %d: position sort permutes differently from the job sort", seed, mp)
			}
		}
	}
}

// TestOccupancySnapshotListsSurviveLaterSorts pins snapshot isolation
// where a midplane's list still has spare capacity: a later job that
// ends last but started first must not reorder, through the next
// snapshot's sort, the list an earlier snapshot holds.
func TestOccupancySnapshotListsSurviveLaterSorts(t *testing.T) {
	var b OccupancyBuilder
	for _, j := range []joblog.Job{
		mkJob(1, "/a", 10*time.Minute, 20*time.Minute, 0, 1),
		mkJob(2, "/b", 30*time.Minute, 40*time.Minute, 0, 1),
		mkJob(3, "/c", 45*time.Minute, 48*time.Minute, 0, 1),
	} {
		b.Add(j)
	}
	old := b.Snapshot()
	want := slices.Clone(old.ix.perMp[0])
	b.Add(mkJob(4, "/d", 5*time.Minute, 50*time.Minute, 0, 1))
	if got := b.Snapshot().ix.perMp[0]; !slices.Equal(got, []int32{3, 0, 1, 2}) {
		t.Fatalf("new snapshot lists %v, want [3 0 1 2]", got)
	}
	if !slices.Equal(old.ix.perMp[0], want) {
		t.Fatalf("earlier snapshot's list changed from %v to %v", want, old.ix.perMp[0])
	}
}
