package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/simulate"
)

var t0 = time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)

// mkJob builds a job on one midplane-range partition.
func mkJob(id int64, exec string, start, end time.Duration, mpStart, size int) joblog.Job {
	return joblog.Job{
		ID: id, Name: "N.A.", ExecFile: exec,
		QueueTime: t0.Add(start - 10*time.Minute),
		StartTime: t0.Add(start), EndTime: t0.Add(end),
		Partition: bgp.Partition{Start: mpStart, Size: size},
		User:      "u1", Project: "p1",
	}
}

// mkFatal builds a FATAL record on a midplane.
func mkFatal(id int64, code string, at time.Duration, mp int) raslog.Record {
	return raslog.Record{
		RecID: id, MsgID: "M", Component: raslog.CompKernel, ErrCode: code,
		Severity: raslog.SevFatal, EventTime: t0.Add(at),
		Location: bgp.MidplaneLocation(mp).String(), Serial: "S", Message: "m",
	}
}

func analyze(t *testing.T, recs []raslog.Record, jobs []joblog.Job) *Analysis {
	t.Helper()
	a, err := Analyze(DefaultConfig(), raslog.NewStore(recs), joblog.NewLog(jobs))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// ident and classOf resolve a code name through the frozen symbol
// table; tests address codes by string, the analysis maps by ID.
func ident(a *Analysis, code string) Identification {
	id, ok := a.Syms.Errcodes.Lookup(code)
	if !ok {
		return Identification{}
	}
	return a.Identification[id]
}

func classOf(a *Analysis, code string) Classification {
	id, ok := a.Syms.Errcodes.Lookup(code)
	if !ok {
		return Classification{}
	}
	return a.Classification[id]
}

func TestMatchAttributesInterruption(t *testing.T) {
	jobs := []joblog.Job{
		mkJob(1, "/a", 0, 2*time.Hour, 0, 1),           // interrupted at 2h by event
		mkJob(2, "/b", 0, 5*time.Hour, 2, 1),           // unrelated, far away, survives
		mkJob(3, "/c", 3*time.Hour, 4*time.Hour, 0, 1), // later on same midplane, clean
	}
	recs := []raslog.Record{
		mkFatal(1, "x", 2*time.Hour-30*time.Second, 0),
	}
	a := analyze(t, recs, jobs)
	if len(a.Interruptions) != 1 {
		t.Fatalf("interruptions = %d, want 1", len(a.Interruptions))
	}
	if a.Interruptions[0].Job.ID != 1 {
		t.Errorf("matched job %d, want 1", a.Interruptions[0].Job.ID)
	}
	if a.DistinctInterruptedJobs() != 1 {
		t.Errorf("distinct = %d", a.DistinctInterruptedJobs())
	}
}

func TestMatchRespectsLocationAndTime(t *testing.T) {
	jobs := []joblog.Job{
		mkJob(1, "/a", 0, 2*time.Hour, 0, 1),
		mkJob(2, "/b", 0, 2*time.Hour, 4, 1), // ends same time, different midplane
	}
	recs := []raslog.Record{
		mkFatal(1, "x", 2*time.Hour, 0),
		mkFatal(2, "y", 30*time.Hour, 0), // long after: matches nothing
	}
	a := analyze(t, recs, jobs)
	if len(a.Interruptions) != 1 || a.Interruptions[0].Job.ID != 1 {
		t.Fatalf("interruptions = %+v", a.Interruptions)
	}
}

func TestIdentifyThreeCases(t *testing.T) {
	jobs := []joblog.Job{
		mkJob(1, "/a", 0, 2*time.Hour, 0, 1),  // killed by "kills" at 2h
		mkJob(2, "/b", 0, 48*time.Hour, 2, 1), // survives "benign" at 24h
		mkJob(3, "/c", 0, 47*time.Hour, 4, 1), // unrelated long job
	}
	recs := []raslog.Record{
		mkFatal(1, "kills", 2*time.Hour, 0),
		mkFatal(2, "kills", 20*time.Hour, 10), // idle midplane: case 2
		mkFatal(3, "benign", 24*time.Hour, 2), // job 2 keeps running: case 3
		mkFatal(4, "idleonly", 30*time.Hour, 20),
	}
	a := analyze(t, recs, jobs)
	if v := ident(a, "kills").Verdict; v != VerdictInterruptionRelated {
		t.Errorf("kills verdict = %v", v)
	}
	if id := ident(a, "kills"); id.Case1 != 1 || id.Case2 != 1 || id.Case3 != 0 {
		t.Errorf("kills cases = %+v", id)
	}
	if v := ident(a, "benign").Verdict; v != VerdictNonFatal {
		t.Errorf("benign verdict = %v", v)
	}
	if v := ident(a, "idleonly").Verdict; v != VerdictUndetermined {
		t.Errorf("idleonly verdict = %v", v)
	}
	c := a.Census()
	if c.TypesInterruptionRelated != 1 || c.TypesNonFatal != 1 || c.TypesUndetermined != 1 {
		t.Errorf("census = %+v", c)
	}
	if c.NonImpactingEventFraction <= 0 || c.NonImpactingEventFraction >= 1 {
		t.Errorf("non-impacting fraction = %v", c.NonImpactingEventFraction)
	}
}

func TestClassifyRepeatLocationIsSystem(t *testing.T) {
	// Two different executables killed by the same code on the same
	// midplane, no clean run between: the scheduler reallocated failed
	// nodes -> system failure (rule 2).
	jobs := []joblog.Job{
		mkJob(1, "/a", 0, 1*time.Hour, 0, 1),
		mkJob(2, "/b", 1*time.Hour+10*time.Minute, 2*time.Hour, 0, 1),
		mkJob(3, "/c", 0, 90*time.Hour, 10, 1), // background
	}
	recs := []raslog.Record{
		mkFatal(1, "sticky", 1*time.Hour, 0),
		mkFatal(2, "sticky", 2*time.Hour, 0),
	}
	a := analyze(t, recs, jobs)
	cl := classOf(a, "sticky")
	if cl.Class != ClassSystem || cl.Rule != RuleRepeatLocation {
		t.Errorf("sticky classification = %+v", cl)
	}
}

// relocationScenario builds Figure 2's pattern twice over (two
// witnesses): /buggy dies with code "bug" on midplanes 0, 4 and 8 in a
// resubmission chain while the abandoned locations host clean jobs.
func relocationScenario() ([]raslog.Record, []joblog.Job) {
	jobs := []joblog.Job{
		mkJob(1, "/buggy", 0, 1*time.Hour, 0, 1),
		mkJob(2, "/other", 90*time.Minute, 4*time.Hour, 0, 1), // clean at location 1
		mkJob(3, "/buggy", 2*time.Hour, 3*time.Hour, 4, 1),
		mkJob(4, "/other2", 3*time.Hour+30*time.Minute, 6*time.Hour, 4, 1), // clean at location 2
		mkJob(5, "/buggy", 4*time.Hour, 5*time.Hour, 8, 1),
		mkJob(6, "/bg", 0, 90*time.Hour, 10, 1),
	}
	recs := []raslog.Record{
		mkFatal(1, "bug", 1*time.Hour, 0),
		mkFatal(2, "bug", 3*time.Hour, 4),
		mkFatal(3, "bug", 5*time.Hour, 8),
	}
	return recs, jobs
}

func TestClassifyRelocationIsApplication(t *testing.T) {
	recs, jobs := relocationScenario()
	a := analyze(t, recs, jobs)
	cl := classOf(a, "bug")
	if cl.Class != ClassApplication || cl.Rule != RuleRelocation {
		t.Errorf("bug classification = %+v", cl)
	}
}

func TestClassifyRelocationNeedsTwoWitnesses(t *testing.T) {
	// A single relocation pair (one witness) is not enough: an unlucky
	// job killed twice by one system code would match it.
	jobs := []joblog.Job{
		mkJob(1, "/buggy", 0, 1*time.Hour, 0, 1),
		mkJob(2, "/other", 90*time.Minute, 4*time.Hour, 0, 1),
		mkJob(3, "/buggy", 2*time.Hour, 3*time.Hour, 4, 1),
		mkJob(4, "/bg", 0, 90*time.Hour, 10, 1),
	}
	recs := []raslog.Record{
		mkFatal(1, "bug", 1*time.Hour, 0),
		mkFatal(2, "bug", 3*time.Hour, 4),
	}
	a := analyze(t, recs, jobs)
	if cl := classOf(a, "bug"); cl.Rule == RuleRelocation {
		t.Errorf("single witness triggered relocation: %+v", cl)
	}
}

func TestClassifyIdleOnlyIsSystem(t *testing.T) {
	jobs := []joblog.Job{mkJob(1, "/a", 0, time.Hour, 0, 1)}
	recs := []raslog.Record{mkFatal(1, "ghost", 10*time.Hour, 20)}
	a := analyze(t, recs, jobs)
	cl := classOf(a, "ghost")
	if cl.Class != ClassSystem || cl.Rule != RuleIdleOnly {
		t.Errorf("ghost classification = %+v", cl)
	}
}

func TestClassifyByCorrelation(t *testing.T) {
	// "twin" co-occurs daily with the application-labeled "bug" type but
	// never earns a rule of its own -> inherits application by Pearson.
	// Set up the two-witness relocation pattern for "bug".
	recs, jobs := relocationScenario()
	jobs = append(jobs, mkJob(7, "/bg2", 0, 200*time.Hour, 12, 1))
	id := int64(10)
	// "twin" interrupts one executable at one fixed location on the same
	// days "bug" fires, so no per-code rule applies (not idle-only, not
	// repeat-location with two execs, not relocation) and it falls
	// through to Pearson correlation.
	nextJob := int64(10)
	for day := 2; day < 8; day += 2 {
		base := time.Duration(day) * 24 * time.Hour
		jobs = append(jobs, mkJob(nextJob, "/buggy", base, base+time.Hour, 4, 1))
		recs = append(recs, mkFatal(id, "bug", base+time.Hour, 4))
		id++
		nextJob++
		jobs = append(jobs, mkJob(nextJob, "/twinexec", base, base+2*time.Hour, 30, 1))
		recs = append(recs, mkFatal(id, "twin", base+2*time.Hour, 30))
		id++
		nextJob++
	}
	// An uncorrelated system code on other days (rule-1 labeled).
	for day := 1; day < 8; day += 2 {
		recs = append(recs, mkFatal(id, "syscode", time.Duration(day)*24*time.Hour, 40))
		id++
	}
	a := analyze(t, recs, jobs)
	if cl := classOf(a, "bug"); cl.Class != ClassApplication {
		t.Fatalf("bug class = %+v", cl)
	}
	cl := classOf(a, "twin")
	if cl.Rule != RuleCorrelation {
		t.Fatalf("twin rule = %v", cl.Rule)
	}
	bugID, _ := a.Syms.Errcodes.Lookup("bug")
	if cl.Class != ClassApplication || cl.CorrelatedWith != bugID {
		t.Errorf("twin classification = %+v", cl)
	}
}

func TestJobFilterRemovesSchedulerChains(t *testing.T) {
	// Three consecutive kills of different execs by the same code at the
	// same midplane with no clean run between: events 2 and 3 are
	// job-related redundant (transitive).
	jobs := []joblog.Job{
		mkJob(1, "/a", 0, 1*time.Hour, 0, 1),
		mkJob(2, "/b", 61*time.Minute, 2*time.Hour, 0, 1),
		mkJob(3, "/c", 121*time.Minute, 3*time.Hour, 0, 1),
		mkJob(4, "/clean", 200*time.Minute, 300*time.Minute, 0, 1), // clean afterwards
		mkJob(5, "/d", 310*time.Minute, 320*time.Minute, 0, 1),
		mkJob(6, "/bg", 0, 90*time.Hour, 10, 1),
	}
	recs := []raslog.Record{
		mkFatal(1, "sticky", 1*time.Hour, 0),
		mkFatal(2, "sticky", 2*time.Hour, 0),
		mkFatal(3, "sticky", 3*time.Hour, 0),
		mkFatal(4, "sticky", 320*time.Minute, 0), // after a clean run: independent
	}
	a := analyze(t, recs, jobs)
	if len(a.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(a.Events))
	}
	if len(a.JobRedundant) != 2 {
		t.Fatalf("job-redundant = %d, want 2 (transitive chain)", len(a.JobRedundant))
	}
	if len(a.Independent) != 2 {
		t.Fatalf("independent = %d, want 2", len(a.Independent))
	}
	st := a.JobFilter()
	if st.Removed != 2 || st.Input != 4 || st.CompressionRatio != 0.5 {
		t.Errorf("job filter stats = %+v", st)
	}
}

func TestJobFilterRemovesResubmittedBuggyCode(t *testing.T) {
	// The same executable dies with the same app-classified code at
	// three different locations; the second and third events are
	// redundant.
	recs, jobs := relocationScenario()
	a := analyze(t, recs, jobs)
	if classOf(a, "bug").Class != ClassApplication {
		t.Fatal("precondition: bug must classify application")
	}
	if len(a.JobRedundant) != 2 {
		t.Fatalf("job-redundant = %d, want 2", len(a.JobRedundant))
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(DefaultConfig(), nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
	if _, err := Analyze(DefaultConfig(), raslog.NewStore(nil), joblog.NewLog(nil)); err == nil {
		t.Error("empty job log accepted")
	}
}

// ---- Integration against the simulated campaign and its oracle ----

var (
	campOnce sync.Once
	camp     *simulate.Campaign
	campA    *Analysis
	campErr  error
)

// campaign runs one shared 120-day campaign and its analysis.
func campaign(t *testing.T) (*simulate.Campaign, *Analysis) {
	t.Helper()
	campOnce.Do(func() {
		camp, campErr = simulate.Run(simulate.Config{Seed: 1, Days: 120, NoisePerFatal: 2})
		if campErr != nil {
			return
		}
		campA, campErr = Analyze(DefaultConfig(), camp.RAS, camp.Jobs)
	})
	if campErr != nil {
		t.Fatal(campErr)
	}
	return camp, campA
}

func TestCampaignMatchingAgainstOracle(t *testing.T) {
	c, a := campaign(t)
	truth := c.Result.Truth
	gtInterrupted := make(map[int64]bool)
	for _, id := range truth.InterruptedJobs() {
		gtInterrupted[id] = true
	}
	matched := a.InterruptedJobIDs()
	tp, fp := 0, 0
	for id := range matched {
		if gtInterrupted[id] {
			tp++
		} else {
			fp++
		}
	}
	fn := 0
	for id := range gtInterrupted {
		if !matched[id] {
			fn++
		}
	}
	if tp == 0 {
		t.Fatal("no true positives")
	}
	recall := float64(tp) / float64(tp+fn)
	precision := float64(tp) / float64(tp+fp)
	if recall < 0.90 {
		t.Errorf("matching recall = %.3f (tp=%d fn=%d), want >= 0.90", recall, tp, fn)
	}
	if precision < 0.85 {
		t.Errorf("matching precision = %.3f (tp=%d fp=%d), want >= 0.85", precision, tp, fp)
	}
}

func TestCampaignIdentificationAgainstOracle(t *testing.T) {
	c, a := campaign(t)
	for code, id := range a.Identification {
		name := a.Syms.Errcodes.Name(code)
		gt, ok := c.Catalog.Lookup(name)
		if !ok {
			t.Fatalf("analysis produced unknown code %q", name)
		}
		if !gt.Interrupting && id.Verdict == VerdictInterruptionRelated {
			t.Errorf("non-interrupting code %q identified as interruption-related (%+v)", name, id)
		}
	}
	// At least one of the two alarm types must be seen and not judged
	// interruption-related.
	cEn := a.Census()
	if cEn.TypesNonFatal+cEn.TypesUndetermined == 0 {
		t.Error("no nonfatal/undetermined types at all")
	}
	if cEn.NonImpactingEventFraction < 0.05 {
		t.Errorf("non-impacting event fraction = %.3f, suspiciously low (paper: 20.84%%)", cEn.NonImpactingEventFraction)
	}
}

func TestCampaignClassificationAgainstOracle(t *testing.T) {
	c, a := campaign(t)
	good, bad := 0, 0
	badEvents := 0
	for code, cl := range a.Classification {
		gt, ok := c.Catalog.Lookup(a.Syms.Errcodes.Name(code))
		if !ok {
			continue
		}
		// Score only codes that actually interrupted jobs; idle-only
		// codes default to system which is trivially right for this
		// catalog.
		if a.Identification[code].Case1 == 0 {
			continue
		}
		want := ClassSystem
		if gt.Class.String() == "application" {
			want = ClassApplication
		}
		if cl.Class == want {
			good++
		} else {
			bad++
			badEvents += a.Identification[code].Events
		}
	}
	if good == 0 {
		t.Fatal("no classified interrupting codes")
	}
	acc := float64(good) / float64(good+bad)
	if acc < 0.75 {
		t.Errorf("classification accuracy = %.3f (%d/%d), want >= 0.75", acc, good, good+bad)
	}
}

func TestCampaignJobFilterAgainstOracle(t *testing.T) {
	_, a := campaign(t)
	st := a.JobFilter()
	if st.Removed == 0 {
		t.Fatal("job-related filtering removed nothing")
	}
	if st.CompressionRatio < 0.02 || st.CompressionRatio > 0.5 {
		t.Errorf("job-filter compression = %.3f, want within (0.02, 0.5) (paper: 13.1%%)", st.CompressionRatio)
	}
	if st.Resubmissions == 0 {
		t.Fatal("no resubmissions detected")
	}
	if st.SameLocationResubmitFraction < 0.35 || st.SameLocationResubmitFraction > 0.85 {
		t.Errorf("same-location resubmits = %.3f, want ~0.57", st.SameLocationResubmitFraction)
	}
}

func TestCampaignFilterCompression(t *testing.T) {
	_, a := campaign(t)
	if a.FilterStats.CompressionRatio() < 0.90 {
		t.Errorf("temporal-spatial-causality compression = %.3f, want > 0.90 (paper: 98.35%%)",
			a.FilterStats.CompressionRatio())
	}
}

func TestJobFilterPartitionsEvents(t *testing.T) {
	// Property: Independent and JobRedundant partition Events exactly.
	_, a := campaign(t)
	if len(a.Independent)+len(a.JobRedundant) != len(a.Events) {
		t.Fatalf("%d + %d != %d", len(a.Independent), len(a.JobRedundant), len(a.Events))
	}
	seen := make(map[*filter.Event]int)
	for _, ev := range a.Independent {
		seen[ev]++
	}
	for _, ev := range a.JobRedundant {
		seen[ev]++
	}
	for _, ev := range a.Events {
		if seen[ev] != 1 {
			t.Fatalf("event at %v appears %d times across partitions", ev.First, seen[ev])
		}
	}
	// Redundant events always carry interruptions (only interruption-
	// bearing events can be job-related redundant).
	for _, ev := range a.JobRedundant {
		if len(a.EventInterruptions(ev)) == 0 {
			t.Fatal("redundant event without interruptions")
		}
	}
}
