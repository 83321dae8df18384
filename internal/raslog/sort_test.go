package raslog

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
)

// oracleSort is the reference (EventTime, RecID) stable sort that
// SortStable must agree with: the standard library's stable sort over
// Before.
func oracleSort(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return Before(&recs[i], &recs[j]) })
}

// tagged returns n records whose Message carries their input position,
// so a stability violation among full ties is visible.
func tagged(n int, at func(i int) time.Time, id func(i int) int64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = mkRecord(id(i), SevInfo, CompKernel, "c", "R00-M0", at(i))
		recs[i].Message = strconv.Itoa(i)
	}
	return recs
}

func checkSortStable(t *testing.T, name string, recs []Record) {
	t.Helper()
	want := slices.Clone(recs)
	oracleSort(want)
	got := slices.Clone(recs)
	SortStable(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

func TestSortStableMatchesOracle(t *testing.T) {
	t0 := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		span := 1 + rng.Intn(50)
		ids := 1 + rng.Intn(20)
		recs := tagged(n,
			func(int) time.Time { return t0.Add(time.Duration(rng.Intn(span)) * time.Second) },
			func(int) int64 { return int64(1 + rng.Intn(ids)) })
		checkSortStable(t, "random", recs)
	}

	sorted := tagged(1000,
		func(i int) time.Time { return t0.Add(time.Duration(i/3) * time.Second) },
		func(i int) int64 { return int64(i) })
	checkSortStable(t, "sorted", sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	checkSortStable(t, "reversed", reversed)

	// Two streams concatenated whose RecIDs both start at 1 (a FATAL
	// stream followed by noise before renumbering): every record of the
	// second stream fully ties one of the first.
	const half = 500
	ties := tagged(2*half,
		func(i int) time.Time { return t0.Add(time.Duration(i%half/4) * time.Minute) },
		func(i int) int64 { return int64(1 + i%half) })
	rng.Shuffle(half, func(i, j int) { ties[i], ties[j] = ties[j], ties[i] })
	checkSortStable(t, "full ties", ties)
	same := tagged(300, func(int) time.Time { return t0 }, func(int) int64 { return 7 })
	checkSortStable(t, "all equal", same)

	big := tagged(400,
		func(int) time.Time { return t0.Add(time.Duration(rng.Intn(5)) * time.Second) },
		func(int) int64 { return 1<<40 + int64(rng.Intn(1<<20))<<20 })
	checkSortStable(t, "RecID >= 1<<40", big)

	// Times with a monotonic clock reading, mixed with the same kind of
	// instants in another location (In drops the reading): Before
	// compares them by instant either way.
	now := time.Now()
	mono := tagged(400,
		func(i int) time.Time {
			at := now.Add(time.Duration(rng.Intn(20)) * time.Millisecond)
			if i%3 == 0 {
				at = at.In(time.FixedZone("X", 3600))
			}
			return at
		},
		func(int) int64 { return int64(rng.Intn(4)) })
	checkSortStable(t, "monotonic", mono)

	// Instants beyond UnixNano's range (years 1678-2262) still order by
	// Before, so the key cannot be an int64 of nanoseconds.
	far := []time.Time{time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC), t0, time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)}
	wide := tagged(200,
		func(int) time.Time { return far[rng.Intn(len(far))] },
		func(int) int64 { return int64(rng.Intn(3)) })
	checkSortStable(t, "outside UnixNano", wide)
}

// TestNewStoreOwnsInput checks that NewStore keeps its input slice
// rather than copying it: sorted input is kept as it is, and unsorted
// input is sorted in place into (EventTime, RecID) order.
func TestNewStoreOwnsInput(t *testing.T) {
	t0 := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	in := tagged(50,
		func(i int) time.Time { return t0.Add(time.Duration(i/2) * time.Second) },
		func(i int) int64 { return int64(i + 1) })
	orig := slices.Clone(in)
	s := NewStore(in)
	if !slices.Equal(in, orig) {
		t.Fatal("store reordered already sorted input")
	}
	if all := s.All(); len(all) != len(in) || &all[0] != &in[0] {
		t.Error("store copied its sorted input")
	}

	shuffled := slices.Clone(orig)
	slices.Reverse(shuffled)
	want := slices.Clone(shuffled)
	oracleSort(want)
	s = NewStore(shuffled)
	if !slices.Equal(s.All(), want) {
		t.Fatal("store over unsorted input is not in (EventTime, RecID) order")
	}
	if all := s.All(); &all[0] != &shuffled[0] {
		t.Error("store copied its unsorted input instead of sorting it in place")
	}
	if got := testing.AllocsPerRun(10, func() { NewStore(shuffled) }); got > 1 {
		t.Errorf("NewStore over sorted input allocates %.0f times, want at most 1 (the Store)", got)
	}
}
