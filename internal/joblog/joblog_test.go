package joblog

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bgp"
)

func mkJob(id int64, exec string, start, end time.Time, p bgp.Partition) Job {
	return Job{
		ID: id, Name: "N.A.", ExecFile: exec,
		QueueTime: start.Add(-10 * time.Minute), StartTime: start, EndTime: end,
		Partition: p, User: "u1", Project: "p1",
	}
}

func TestJobRoundTrip(t *testing.T) {
	start := time.Date(2008, 5, 1, 0, 0, 43, 0, time.UTC)
	j := Job{
		ID: 8935, Name: "N.A.", ExecFile: "/home/u/app.exe",
		QueueTime: start.Add(-52 * time.Minute),
		StartTime: start,
		EndTime:   start.Add(time.Hour),
		Partition: bgp.Partition{Start: 16, Size: 4}, // R10-R11
		User:      "alice", Project: "climate",
	}
	got, err := UnmarshalLine(j.MarshalLine())
	if err != nil {
		t.Fatalf("UnmarshalLine: %v", err)
	}
	if got.ID != j.ID || got.ExecFile != j.ExecFile || got.Partition != j.Partition ||
		got.User != j.User || got.Project != j.Project {
		t.Errorf("round trip mismatch: %+v vs %+v", got, j)
	}
	// Epoch serialization keeps 10ms accuracy.
	if d := got.StartTime.Sub(j.StartTime); d > 20*time.Millisecond || d < -20*time.Millisecond {
		t.Errorf("StartTime drift %v", d)
	}
}

func TestJobRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := bgp.PartitionSizes[rng.Intn(len(bgp.PartitionSizes))]
		align := size
		if size == 48 || size == 80 {
			align = 16
		}
		nStarts := (bgp.NumMidplanes-size)/align + 1
		start := time.Unix(rng.Int63n(2e9), 0).UTC()
		j := Job{
			ID: rng.Int63n(1e9), Name: "n", ExecFile: "/x/y|z.exe",
			QueueTime: start.Add(-time.Hour), StartTime: start,
			EndTime:   start.Add(time.Duration(rng.Int63n(3600*24)) * time.Second),
			Partition: bgp.Partition{Start: align * rng.Intn(nStarts), Size: size},
			User:      "u", Project: "p",
		}
		got, err := UnmarshalLine(j.MarshalLine())
		if err != nil {
			return false
		}
		return got.ID == j.ID && got.ExecFile == j.ExecFile && got.Partition == j.Partition
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalLineErrors(t *testing.T) {
	bad := []string{
		"",
		"1|2|3",
		"x|n|e|0|0|0|R00-M0|u|p",
		"1|n|e|zzz|0|0|R00-M0|u|p",
		"1|n|e|0|0|0|R99-M9|u|p",
	}
	for _, line := range bad {
		if _, err := UnmarshalLine(line); err == nil {
			t.Errorf("UnmarshalLine(%q): want error", line)
		}
	}
}

func TestWriterReader(t *testing.T) {
	t0 := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	jobs := []Job{
		mkJob(1, "/a", t0, t0.Add(time.Hour), bgp.Partition{Start: 0, Size: 1}),
		mkJob(2, "/b", t0, t0.Add(2*time.Hour), bgp.Partition{Start: 8, Size: 8}),
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, j := range jobs {
		if err := w.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 2 {
		t.Errorf("Count = %d", w.Count())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 1 || got[1].Partition.Size != 8 {
		t.Errorf("ReadAll = %+v", got)
	}
}

func TestJobPredicates(t *testing.T) {
	t0 := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	j := mkJob(1, "/a", t0, t0.Add(time.Hour), bgp.Partition{Start: 4, Size: 4})
	if j.Runtime() != time.Hour {
		t.Errorf("Runtime = %v", j.Runtime())
	}
	if j.WaitTime() != 10*time.Minute {
		t.Errorf("WaitTime = %v", j.WaitTime())
	}
	if j.Size() != 4 {
		t.Errorf("Size = %d", j.Size())
	}
	if !j.RunningAt(t0) || !j.RunningAt(t0.Add(30*time.Minute)) || j.RunningAt(t0.Add(time.Hour)) || j.RunningAt(t0.Add(-time.Second)) {
		t.Error("RunningAt boundaries wrong")
	}
	if !j.OnMidplane(4) || !j.OnMidplane(7) || j.OnMidplane(8) || j.OnMidplane(3) {
		t.Error("OnMidplane boundaries wrong")
	}
}

func TestLogQueries(t *testing.T) {
	t0 := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	jobs := []Job{
		mkJob(3, "/a", t0.Add(2*time.Hour), t0.Add(3*time.Hour), bgp.Partition{Start: 0, Size: 1}),
		mkJob(1, "/a", t0, t0.Add(time.Hour), bgp.Partition{Start: 0, Size: 1}),
		mkJob(2, "/b", t0, t0.Add(2*time.Hour), bgp.Partition{Start: 2, Size: 2}),
	}
	l := NewLog(jobs)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	all := l.All()
	for i := 1; i < len(all); i++ {
		if all[i].EndTime.Before(all[i-1].EndTime) {
			t.Fatal("log not EndTime-ordered")
		}
	}
	d, r := l.DistinctExecutables()
	if d != 2 || r != 1 {
		t.Errorf("DistinctExecutables = %d,%d want 2,1", d, r)
	}
	busy := l.MidplaneBusySeconds(0)
	if busy[0] != 7200 { // two 1-hour jobs on midplane 0
		t.Errorf("busy[0] = %v, want 7200", busy[0])
	}
	if busy[2] != 7200 || busy[3] != 7200 {
		t.Errorf("busy[2,3] = %v,%v want 7200", busy[2], busy[3])
	}
	wide := l.MidplaneBusySeconds(2)
	if wide[0] != 0 || wide[2] != 7200 {
		t.Errorf("wide busy = %v,%v", wide[0], wide[2])
	}
	first, last := l.Span()
	if !first.Equal(t0.Add(-10*time.Minute)) || !last.Equal(t0.Add(3*time.Hour)) {
		t.Errorf("Span = %v..%v", first, last)
	}
	groups := l.ByExecFile()
	if a := groups["/a"]; len(a) != 2 || all[a[0]].ID != 1 || all[a[1]].ID != 3 {
		t.Errorf("ByExecFile grouping wrong: %v", a)
	}
}

// freshByExecFile is the grouping ByExecFile shares, rebuilt per call
// with the same comparator and sort call.
func freshByExecFile(l *Log) map[string][]Job {
	m := make(map[string][]Job)
	for _, j := range l.All() {
		m[j.ExecFile] = append(m[j.ExecFile], j)
	}
	for _, js := range m {
		sort.Slice(js, func(a, b int) bool { return js[a].StartTime.Before(js[b].StartTime) })
	}
	return m
}

// tieFixtureLog is 300 jobs over seven executables whose start times
// collide within an executable, so the unstable sort's tie order is
// part of what a grouping must reproduce.
func tieFixtureLog() *Log {
	t0 := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	var jobs []Job
	for i := 0; i < 300; i++ {
		start := t0.Add(time.Duration(i*37%50) * time.Minute)
		jobs = append(jobs, mkJob(int64(i), fmt.Sprintf("/app%d", i%7), start,
			start.Add(time.Duration(1+i%5)*time.Hour), bgp.Partition{Start: i % 40, Size: 1}))
	}
	return NewLog(jobs)
}

func TestByExecFileSharedAndEqualToFreshBuild(t *testing.T) {
	l := tieFixtureLog()
	got := make([]map[string][]int32, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = l.ByExecFile()
		}(i)
	}
	wg.Wait()
	for i, m := range got {
		if reflect.ValueOf(m).Pointer() != reflect.ValueOf(got[0]).Pointer() {
			t.Errorf("reader %d got its own grouping, want the shared one", i)
		}
	}

	want := freshByExecFile(l)
	resolved := make(map[string][]Job, len(got[0]))
	seen := make([]int, l.Len())
	execs := make([]string, 0, len(got[0]))
	for exec := range got[0] {
		execs = append(execs, exec)
	}
	sort.Strings(execs)
	for _, exec := range execs {
		ps := got[0][exec]
		if cap(ps) != len(ps) {
			t.Errorf("group %s: cap %d, len %d; an append would overwrite its neighbour", exec, cap(ps), len(ps))
		}
		for _, p := range ps {
			resolved[exec] = append(resolved[exec], l.All()[p])
			seen[p]++
		}
	}
	if !reflect.DeepEqual(resolved, want) {
		t.Error("shared grouping, resolved through All(), differs from a fresh build")
	}
	for p, n := range seen {
		if n != 1 {
			t.Errorf("position %d appears %d times, want once", p, n)
		}
	}
}

// freshDistinctExecutables is the count-map computation
// DistinctExecutables made before it read the shared grouping.
func freshDistinctExecutables(l *Log) (distinct, resubmitted int) {
	count := make(map[string]int)
	for _, j := range l.All() {
		count[j.ExecFile]++
	}
	for _, n := range count {
		if n > 1 {
			resubmitted++
		}
	}
	return len(count), resubmitted
}

func TestDistinctExecutablesMatchesCountMap(t *testing.T) {
	// The tie fixture gives every executable several runs; the extra
	// job adds one run only.
	t0 := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	jobs := append(append([]Job(nil), tieFixtureLog().All()...), mkJob(1000, "/once", t0, t0.Add(time.Hour), bgp.Partition{Size: 1}))
	for name, l := range map[string]*Log{"ties": NewLog(jobs), "empty": NewLog(nil)} {
		d, r := l.DistinctExecutables()
		wd, wr := freshDistinctExecutables(l)
		if d != wd || r != wr {
			t.Errorf("%s: DistinctExecutables = %d,%d, want %d,%d", name, d, r, wd, wr)
		}
	}
}

func TestLogSpanEmpty(t *testing.T) {
	l := NewLog(nil)
	first, last := l.Span()
	if !first.IsZero() || !last.IsZero() {
		t.Error("empty Span should be zero")
	}
}

// TestNewLogOwnsInput checks that NewLog keeps its input slice rather
// than copying it: sorted input is kept as it is, and unsorted input is
// sorted in place into (EndTime, ID) order, stably among full ties, as
// the reflection-based sort.SliceStable over a copy ordered it.
func TestNewLogOwnsInput(t *testing.T) {
	t0 := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	var in []Job
	for i := 0; i < 60; i++ {
		end := t0.Add(time.Duration(i/3) * time.Minute)
		// IDs tie in pairs within an end time; the executable tags
		// input order, so a full tie's order is visible.
		in = append(in, mkJob(int64(i%3/2), fmt.Sprintf("/tag%d", i), t0, end, bgp.Partition{Size: 1}))
	}
	orig := slices.Clone(in)
	l := NewLog(in)
	if !slices.Equal(in, orig) {
		t.Fatal("log reordered already sorted input")
	}
	if all := l.All(); len(all) != len(in) || &all[0] != &in[0] {
		t.Error("log copied its sorted input")
	}

	shuffled := slices.Clone(orig)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	want := slices.Clone(shuffled)
	sort.SliceStable(want, func(i, j int) bool {
		if !want[i].EndTime.Equal(want[j].EndTime) {
			return want[i].EndTime.Before(want[j].EndTime)
		}
		return want[i].ID < want[j].ID
	})
	again := slices.Clone(shuffled)
	l = NewLog(shuffled)
	if !slices.Equal(l.All(), want) {
		t.Fatal("log over unsorted input differs from a stable (EndTime, ID) sort")
	}
	if all := l.All(); &all[0] != &shuffled[0] {
		t.Error("log copied its unsorted input instead of sorting it in place")
	}
	if got := testing.AllocsPerRun(10, func() { NewLog(shuffled) }); got > 1 {
		t.Errorf("NewLog over sorted input allocates %.0f times, want at most 1 (the Log)", got)
	}

	// SortStable, which bgpd's loaders call on their own, is the same
	// order.
	SortStable(again)
	if !slices.Equal(again, want) {
		t.Fatal("SortStable differs from a stable (EndTime, ID) sort")
	}
}
