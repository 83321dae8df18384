package core

import (
	"testing"
	"time"

	"repro/internal/joblog"
	"repro/internal/raslog"
)

// occupancyOf builds the occupancy index over a whole job log, as
// Analyze does.
func occupancyOf(jobs *joblog.Log) *occupancyIndex {
	var b OccupancyBuilder
	for _, j := range jobs.All() {
		b.Add(j)
	}
	return b.Snapshot().ix
}

func TestOccupancyIndexRunningOn(t *testing.T) {
	jobs := []joblog.Job{
		mkJob(1, "/a", 0, 2*time.Hour, 0, 2),
		mkJob(2, "/b", 3*time.Hour, 4*time.Hour, 0, 1),
		mkJob(3, "/c", 0, 10*time.Hour, 4, 4),
	}
	ix := occupancyOf(joblog.NewLog(jobs))

	j, ok := ix.runningOn(0, t0.Add(time.Hour))
	if !ok || j.ID != 1 {
		t.Errorf("runningOn(0, 1h) = %+v, %v", j.ID, ok)
	}
	j, ok = ix.runningOn(1, t0.Add(time.Hour))
	if !ok || j.ID != 1 {
		t.Errorf("runningOn(1, 1h) = %+v, %v (partition spans mp 0-1)", j.ID, ok)
	}
	if _, ok := ix.runningOn(0, t0.Add(150*time.Minute)); ok {
		t.Error("gap between jobs reported busy")
	}
	j, ok = ix.runningOn(0, t0.Add(210*time.Minute))
	if !ok || j.ID != 2 {
		t.Errorf("runningOn(0, 3.5h) = %v, %v", j.ID, ok)
	}
	if _, ok := ix.runningOn(2, t0.Add(time.Hour)); ok {
		t.Error("idle midplane reported busy")
	}
	// End boundary is exclusive.
	if _, ok := ix.runningOn(0, t0.Add(2*time.Hour)); ok {
		t.Error("job reported running at its own end instant")
	}
}

func TestOccupancyIndexEndedWithin(t *testing.T) {
	jobs := []joblog.Job{
		mkJob(1, "/a", 0, 1*time.Hour, 0, 1),
		mkJob(2, "/b", 2*time.Hour, 3*time.Hour, 0, 1),
		mkJob(3, "/c", 0, 90*time.Minute, 1, 1),
	}
	ix := occupancyOf(joblog.NewLog(jobs))
	got := ix.endedWithin(0, t0.Add(30*time.Minute), t0.Add(200*time.Minute))
	if len(got) != 2 {
		t.Fatalf("endedWithin = %d jobs, want 2", len(got))
	}
	got = ix.endedWithin(1, t0, t0.Add(2*time.Hour))
	if len(got) != 1 || ix.byEnd[got[0]].ID != 3 {
		t.Errorf("endedWithin(1) = %+v", got)
	}
	if got := ix.endedWithin(5, t0, t0.Add(24*time.Hour)); len(got) != 0 {
		t.Errorf("idle midplane returned %d jobs", len(got))
	}
}

func TestOccupancyIndexRanCleanBetween(t *testing.T) {
	jobs := []joblog.Job{
		mkJob(1, "/a", 0, 1*time.Hour, 0, 1),
		mkJob(2, "/b", 2*time.Hour, 3*time.Hour, 0, 1),
	}
	ix := occupancyOf(joblog.NewLog(jobs))
	none := map[int64]bool{}
	if !ix.ranCleanBetween(0, t0.Add(90*time.Minute), t0.Add(4*time.Hour), none) {
		t.Error("clean job 2 not detected")
	}
	// Same window but job 2 marked interrupted: no clean run.
	if ix.ranCleanBetween(0, t0.Add(90*time.Minute), t0.Add(4*time.Hour), map[int64]bool{2: true}) {
		t.Error("interrupted job counted as clean")
	}
	// Window that only partially contains job 2.
	if ix.ranCleanBetween(0, t0.Add(150*time.Minute), t0.Add(170*time.Minute), none) {
		t.Error("partially contained job counted as clean")
	}
}

func TestMatchClaimsOneJobPerMidplane(t *testing.T) {
	// Two jobs end within the window on the same midplane (sequential
	// occupancy); only the one nearest the event time may be claimed.
	jobs := []joblog.Job{
		mkJob(1, "/a", 0, 2*time.Hour, 0, 1),
		mkJob(2, "/b", 2*time.Hour+time.Minute, 2*time.Hour+3*time.Minute, 0, 1),
		mkJob(3, "/bg", 0, 40*time.Hour, 10, 1),
	}
	recs := []raslog.Record{mkFatal(1, "x", 2*time.Hour+3*time.Minute, 0)}
	a := analyze(t, recs, jobs)
	if len(a.Interruptions) != 1 {
		t.Fatalf("interruptions = %d, want 1 (one victim per event midplane)", len(a.Interruptions))
	}
	if a.Interruptions[0].Job.ID != 2 {
		t.Errorf("claimed job %d, want the nearest-ending job 2", a.Interruptions[0].Job.ID)
	}
}

func TestMatchEventCannotKillBeforeItOccurs(t *testing.T) {
	// A job ending 10 minutes before the event must not be claimed (the
	// pre-event slack is only 90 s).
	jobs := []joblog.Job{
		mkJob(1, "/a", 0, 2*time.Hour, 0, 1),
		mkJob(2, "/bg", 0, 40*time.Hour, 10, 1),
	}
	recs := []raslog.Record{mkFatal(1, "x", 2*time.Hour+10*time.Minute, 0)}
	a := analyze(t, recs, jobs)
	if len(a.Interruptions) != 0 {
		t.Fatalf("claimed %d interruptions for a post-hoc event", len(a.Interruptions))
	}
}
