package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/joblog"
	"repro/internal/simulate"
	"repro/internal/symtab"
)

// byExecFile is the string-keyed grouping the analysis used before its
// ExecID runs: each executable's positions into l.All(), appended in
// position order and then ordered by StartTime with sort.Slice. It is
// the oracle of the counting sort in groupExecRuns.
func byExecFile(l *joblog.Log) map[string][]int32 {
	jobs := l.All()
	m := make(map[string][]int32)
	for i := range jobs {
		m[jobs[i].ExecFile] = append(m[jobs[i].ExecFile], int32(i))
	}
	for _, ps := range m {
		sort.Slice(ps, func(a, b int) bool {
			return jobs[ps[a]].StartTime.Before(jobs[ps[b]].StartTime)
		})
	}
	return m
}

// jobsOnlyAnalysis runs the stages after the cascade over l with no
// fatal events: the job-side indexes are built all the same.
func jobsOnlyAnalysis(t *testing.T, l *joblog.Log) *Analysis {
	t.Helper()
	a, err := analyzeLog(DefaultConfig(), symtab.NewTable(), nil, filter.Stats{}, time.Time{}, time.Time{}, l)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// checkExecRuns compares a's ExecID runs with the byExecFile oracle
// position for position, and the interned executables with the log's
// distinct count.
func checkExecRuns(t *testing.T, a *Analysis) {
	t.Helper()
	want := byExecFile(a.Jobs)
	if got := a.tab.Execs.Len(); got != len(want) {
		t.Fatalf("%d interned executables, oracle groups %d", got, len(want))
	}
	seen := make([]int, a.Jobs.Len())
	for name, ps := range want {
		exec, ok := a.tab.Execs.Lookup(name)
		if !ok {
			t.Fatalf("executable %s was not interned", name)
		}
		runs := a.ExecRuns(exec)
		if !slices.Equal(runs, ps) {
			t.Fatalf("runs of %s = %v, oracle %v", name, runs, ps)
		}
		if cap(runs) != len(runs) {
			t.Fatalf("runs of %s: cap %d, len %d; an append would overwrite the next group", name, cap(runs), len(runs))
		}
		for _, p := range runs {
			if a.execIDs[p] != exec {
				t.Fatalf("position %d is in %s's runs but carries ExecID %d", p, name, a.execIDs[p])
			}
			seen[p]++
		}
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("position %d appears in %d runs, want 1", p, n)
		}
	}
	if d, _ := a.Jobs.DistinctExecutables(); d != a.tab.Execs.Len() {
		t.Fatalf("Log.DistinctExecutables = %d, tab.Execs.Len() = %d", d, a.tab.Execs.Len())
	}
}

// tiedJobs is n jobs over execs executables whose start times collide
// within an executable, so the unstable sort's tie order is part of
// what the runs must reproduce; every seventh job repeats an earlier
// job's ID, and one executable runs once.
func tiedJobs(n, execs int) []joblog.Job {
	var jobs []joblog.Job
	for i := 0; i < n; i++ {
		start := time.Duration(i*37%50) * time.Minute
		id := int64(i)
		if i%7 == 6 {
			id = int64(i - 3)
		}
		jobs = append(jobs, mkJob(id, fmt.Sprintf("/app%d", i%execs), start,
			start+time.Duration(1+i%5)*time.Hour, i%40, 1))
	}
	return append(jobs, mkJob(int64(n), "/once", 0, time.Hour, 79, 1))
}

func TestExecRunsMatchByExecFile(t *testing.T) {
	for _, tc := range []struct {
		name string
		jobs []joblog.Job
	}{
		{"ties", tiedJobs(300, 7)},
		// More than twelve runs per executable take pdqsort past its
		// insertion sort.
		{"long-ties", tiedJobs(2000, 3)},
		{"one-run-each", tiedJobs(40, 40)},
		{"single", tiedJobs(0, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkExecRuns(t, jobsOnlyAnalysis(t, joblog.NewLog(tc.jobs)))
		})
	}
	t.Run("campaign", func(t *testing.T) {
		camp, err := simulate.Run(simulate.Config{Seed: 1, Days: 30, NoisePerFatal: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(DefaultConfig(), camp.RAS, camp.Jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Interruptions) == 0 {
			t.Fatal("the campaign matched no interruptions")
		}
		checkExecRuns(t, a)
	})
}
