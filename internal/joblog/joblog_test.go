package joblog

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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
	if len(groups["/a"]) != 2 || !groups["/a"][0].StartTime.Before(groups["/a"][1].StartTime) {
		t.Errorf("ByExecFile grouping wrong: %+v", groups["/a"])
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

func TestByExecFileSharedAndEqualToFreshBuild(t *testing.T) {
	t0 := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	var jobs []Job
	for i := 0; i < 300; i++ {
		// Start times collide within an executable, so the unstable
		// sort's tie order is part of what must match.
		start := t0.Add(time.Duration(i*37%50) * time.Minute)
		jobs = append(jobs, mkJob(int64(i), fmt.Sprintf("/app%d", i%7), start,
			start.Add(time.Duration(1+i%5)*time.Hour), bgp.Partition{Start: i % 40, Size: 1}))
	}
	l := NewLog(jobs)
	got := make([]map[string][]Job, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = l.ByExecFile()
		}(i)
	}
	wg.Wait()
	want := freshByExecFile(l)
	for i, m := range got {
		if reflect.ValueOf(m).Pointer() != reflect.ValueOf(got[0]).Pointer() {
			t.Errorf("reader %d got its own grouping, want the shared one", i)
		}
		if !reflect.DeepEqual(m, want) {
			t.Errorf("reader %d: shared grouping differs from a fresh build", i)
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
