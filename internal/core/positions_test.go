package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/joblog"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// The per-job passes read each job's dictionary ID from a.jobIDs, and
// its interrupted flag from a.interruptedAt, by its position in
// Jobs.All(), and walk executables through a.ExecRuns. The oracles
// below are those passes as they were before: each probes the job
// dictionary (or the interrupted-ID map) with the job's ID once per job
// and walks the string-keyed byExecFile grouping.

// lookupResubmissions is Resubmissions probing tab.Jobs.Lookup.
func lookupResubmissions(a *Analysis, maxK int) ResubmissionStats {
	if maxK <= 0 {
		maxK = 3
	}
	rs := ResubmissionStats{
		MaxK:         maxK,
		System:       make([]float64, maxK+1),
		Application:  make([]float64, maxK+1),
		SystemN:      make([]int, maxK+1),
		ApplicationN: make([]int, maxK+1),
	}
	cause, interrupted := a.jobCauses()
	sysHit := make([]int, maxK+1)
	appHit := make([]int, maxK+1)
	withHistory2 := 0
	all := a.Jobs.All()
	for _, runs := range byExecFile(a.Jobs) {
		streak := 0
		var lastCause Class
		for _, p := range runs {
			jid, ok := a.tab.Jobs.Lookup(all[p].ID)
			hit := ok && interrupted[jid]
			if k := min(streak, maxK); k >= 1 {
				if lastCause == ClassApplication {
					rs.ApplicationN[k]++
					if hit {
						appHit[k]++
					}
				} else {
					rs.SystemN[k]++
					if hit {
						sysHit[k]++
					}
				}
			}
			if hit {
				if streak >= 2 {
					withHistory2++
				}
				streak++
				lastCause = cause[jid]
			} else {
				streak = 0
			}
		}
	}
	for k := 1; k <= maxK; k++ {
		if rs.SystemN[k] > 0 {
			rs.System[k] = float64(sysHit[k]) / float64(rs.SystemN[k])
		}
		if rs.ApplicationN[k] > 0 {
			rs.Application[k] = float64(appHit[k]) / float64(rs.ApplicationN[k])
		}
	}
	if n := len(a.Interruptions); n > 0 {
		rs.UncoveredFraction = 1 - float64(withHistory2)/float64(n)
	}
	return rs
}

// lookupVulnerability is Vulnerability probing tab.Jobs.Lookup.
func lookupVulnerability(a *Analysis) VulnerabilityTable {
	sizes := append([]int(nil), workload.Sizes...)
	edges := append([]float64(nil), workload.RuntimeBinEdges...)
	vt := VulnerabilityTable{
		Sizes:     sizes,
		BinEdges:  edges,
		Cells:     make([][]VulnerabilityCell, len(sizes)),
		RowTotals: make([]VulnerabilityCell, len(sizes)),
		ColTotals: make([]VulnerabilityCell, len(edges)),
	}
	for i := range vt.Cells {
		vt.Cells[i] = make([]VulnerabilityCell, len(edges))
	}
	cause, interrupted := a.jobCauses()
	for _, j := range a.Jobs.All() {
		jid, found := a.tab.Jobs.Lookup(j.ID)
		isInt := found && interrupted[jid]
		if isInt && cause[jid] == ClassApplication {
			continue
		}
		row := slices.Index(sizes, j.Size())
		if row < 0 {
			continue
		}
		col := runtimeBin(edges, j.Runtime())
		for _, c := range []*VulnerabilityCell{&vt.Cells[row][col], &vt.RowTotals[row], &vt.ColTotals[col], &vt.Grand} {
			c.Total++
			if isInt {
				c.Interrupted++
			}
		}
	}
	return vt
}

// lookupJobFilter is JobFilter with sameLocationResubmits reading the
// InterruptedJobIDs map.
func lookupJobFilter(a *Analysis) JobFilterStats {
	st := JobFilterStats{Input: len(a.Events), Removed: len(a.JobRedundant)}
	if st.Input > 0 {
		st.CompressionRatio = float64(st.Removed) / float64(st.Input)
	}
	interrupted := a.InterruptedJobIDs()
	all := a.Jobs.All()
	same := 0
	for _, runs := range byExecFile(a.Jobs) {
		for i := 0; i < len(runs)-1; i++ {
			cur, next := &all[runs[i]], &all[runs[i+1]]
			if !interrupted[cur.ID] || next.QueueTime.Before(cur.EndTime) {
				continue
			}
			st.Resubmissions++
			if next.Partition == cur.Partition {
				same++
			}
		}
	}
	if st.Resubmissions > 0 {
		st.SameLocationResubmitFraction = float64(same) / float64(st.Resubmissions)
	}
	return st
}

// lookupBurstJobs is the two job-indexed fields of Bursts, read off
// the InterruptedJobIDs map.
func lookupBurstJobs(a *Analysis) (interruptedFraction float64, maxStreak int) {
	interrupted := a.InterruptedJobIDs()
	if n := a.Jobs.Len(); n > 0 {
		interruptedFraction = float64(len(interrupted)) / float64(n)
	}
	all := a.Jobs.All()
	for _, runs := range byExecFile(a.Jobs) {
		streak := 0
		for _, p := range runs {
			if !interrupted[all[p].ID] {
				streak = 0
				continue
			}
			streak++
			maxStreak = max(maxStreak, streak)
		}
	}
	return interruptedFraction, maxStreak
}

// checkPositionPasses compares every position-indexed pass with its
// dictionary-probing oracle (Features with legacyFeatures, Bursts on
// its job-indexed fields).
func checkPositionPasses(t *testing.T, a *Analysis) {
	t.Helper()
	if got, want := a.Resubmissions(3), lookupResubmissions(a, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("Resubmissions = %+v\noracle          %+v", got, want)
	}
	if got, want := a.Vulnerability(), lookupVulnerability(a); !reflect.DeepEqual(got, want) {
		t.Errorf("Vulnerability = %+v\noracle          %+v", got, want)
	}
	if got, want := a.JobFilter(), lookupJobFilter(a); got != want {
		t.Errorf("JobFilter = %+v\noracle      %+v", got, want)
	}
	bs := a.Bursts(0)
	if frac, streak := lookupBurstJobs(a); bs.InterruptedJobFraction != frac || bs.MaxPerJobStreak != streak {
		t.Errorf("Bursts interrupted fraction, max streak = %v, %d; oracle %v, %d",
			bs.InterruptedJobFraction, bs.MaxPerJobStreak, frac, streak)
	}
	if got, want := a.Features(12), legacyFeatures(a, 12); !reflect.DeepEqual(got, want) {
		t.Errorf("Features = %+v\noracle     %+v", got, want)
	}
	hit := a.InterruptedJobIDs()
	for p, j := range a.Jobs.All() {
		if a.interruptedAt[p] != hit[j.ID] {
			t.Fatalf("interruptedAt[%d] = %v, InterruptedJobIDs has job %d: %v", p, a.interruptedAt[p], j.ID, hit[j.ID])
		}
	}
	checkExecRuns(t, a)
}

// TestPositionIndexedJobIDsRepeatedID gives jobs that were not
// interrupted the IDs of interrupted ones, so a repeated ID both
// resolves to the first job's dictionary ID and carries an
// interruption; then it shifts every job a thousand days past the RAS
// log, so the same passes run over an analysis with no interruptions.
func TestPositionIndexedJobIDsRepeatedID(t *testing.T) {
	camp, err := simulate.Run(simulate.Config{Seed: 7, Days: 30, NoisePerFatal: 0})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Analyze(DefaultConfig(), camp.RAS, camp.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	hit := base.InterruptedJobIDs()
	var victims []int64
	for _, in := range base.Interruptions {
		victims = append(victims, in.Job.ID)
	}

	jobs := slices.Clone(camp.Jobs.All())
	for i, v := 0, 0; i < len(jobs) && v < len(victims); i += 7 {
		if !hit[jobs[i].ID] {
			jobs[i].ID = victims[v]
			v++
		}
	}
	a, err := Analyze(DefaultConfig(), camp.RAS, joblog.NewLog(jobs))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]int)
	for _, j := range a.Jobs.All() {
		seen[j.ID]++
	}
	repeatedHit := 0
	for id := range a.InterruptedJobIDs() {
		if seen[id] > 1 {
			repeatedHit++
		}
	}
	if repeatedHit == 0 {
		t.Fatal("no interrupted job shares its ID with another job; the test exercises nothing")
	}
	checkPositionPasses(t, a)

	shifted := slices.Clone(camp.Jobs.All())
	for i := range shifted {
		const later = 1000 * 24 * time.Hour
		j := &shifted[i]
		j.QueueTime, j.StartTime, j.EndTime = j.QueueTime.Add(later), j.StartTime.Add(later), j.EndTime.Add(later)
	}
	quiet, err := Analyze(DefaultConfig(), camp.RAS, joblog.NewLog(shifted))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(quiet.Interruptions); n != 0 {
		t.Fatalf("shifted job log still matched %d interruptions", n)
	}
	checkPositionPasses(t, quiet)
}
