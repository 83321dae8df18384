package sched

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/errcat"
	"repro/internal/faultgen"
	"repro/internal/raslog"
	"repro/internal/workload"
)

// smallCampaign runs a short, fault-rich campaign for invariant tests.
func smallCampaign(t *testing.T, seed int64, days int) *Result {
	t.Helper()
	cat := errcat.Intrepid()
	spec := workload.DefaultSpec(seed, 1)
	spec.Days = days
	gen, err := workload.New(spec, cat.ByClass(errcat.ClassApplication))
	if err != nil {
		t.Fatal(err)
	}
	model := faultgen.DefaultModel(cat)
	// Crank the base rate so a short campaign still sees plenty of faults.
	model.BaseRate *= 6
	emitCfg := faultgen.DefaultEmitterConfig()
	emitCfg.NoisePerFatal = 2
	res, err := Run(DefaultConfig(seed), gen, model, emitCfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunProducesConsistentLogs(t *testing.T) {
	res := smallCampaign(t, 1, 14)
	if len(res.Jobs) == 0 {
		t.Fatal("no jobs")
	}
	if len(res.Records) == 0 {
		t.Fatal("no RAS records")
	}
	ids := map[int64]bool{}
	for _, j := range res.Jobs {
		if ids[j.ID] {
			t.Fatalf("duplicate job ID %d", j.ID)
		}
		ids[j.ID] = true
		if j.StartTime.Before(j.QueueTime) {
			t.Fatalf("job %d starts before queueing", j.ID)
		}
		if !j.EndTime.After(j.StartTime) {
			t.Fatalf("job %d ends at/before start", j.ID)
		}
		if !j.Partition.Valid() {
			t.Fatalf("job %d invalid partition %+v", j.ID, j.Partition)
		}
		if _, ok := res.Truth.Outcomes[j.ID]; !ok {
			t.Fatalf("job %d missing outcome", j.ID)
		}
	}
	// Every outcome corresponds to a logged job.
	if len(res.Truth.Outcomes) != len(res.Jobs) {
		t.Errorf("outcomes %d vs jobs %d", len(res.Truth.Outcomes), len(res.Jobs))
	}
	// RecIDs sequential, records time-ordered.
	for i, r := range res.Records {
		if r.RecID != int64(i+1) {
			t.Fatalf("record %d has RecID %d", i, r.RecID)
		}
		if i > 0 && r.EventTime.Before(res.Records[i-1].EventTime) {
			t.Fatal("records not time-ordered")
		}
	}
}

func TestNoOverlappingAllocations(t *testing.T) {
	res := smallCampaign(t, 2, 10)
	// Sweep: no two jobs may hold the same midplane at the same time.
	type iv struct {
		s, e time.Time
		id   int64
	}
	perMp := make([][]iv, bgp.NumMidplanes)
	for _, j := range res.Jobs {
		for mp := j.Partition.Start; mp < j.Partition.End(); mp++ {
			perMp[mp] = append(perMp[mp], iv{j.StartTime, j.EndTime, j.ID})
		}
	}
	for mp, ivs := range perMp {
		for i := range ivs {
			for k := i + 1; k < len(ivs); k++ {
				a, b := ivs[i], ivs[k]
				if a.s.Before(b.e) && b.s.Before(a.e) {
					// Inline system kills log EndTime a detection delay
					// after release; allow sub-minute overlap.
					over := minTime(a.e, b.e).Sub(maxTime(a.s, b.s))
					if over > time.Minute {
						t.Fatalf("midplane %d double-booked by jobs %d and %d for %v", mp, a.id, b.id, over)
					}
				}
			}
		}
	}
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func TestInterruptionsHaveFatalRecords(t *testing.T) {
	res := smallCampaign(t, 3, 14)
	store := raslog.NewStore(res.Records)
	fatal := store.Fatal()
	if len(fatal) == 0 {
		t.Fatal("no fatal records")
	}
	interrupted := 0
	for id, o := range res.Truth.Outcomes {
		if !o.Interrupted {
			continue
		}
		interrupted++
		// Find the job and check a fatal record with the outcome's code
		// exists near its end on its partition.
		var job *jobRef
		for i := range res.Jobs {
			if res.Jobs[i].ID == id {
				job = &jobRef{i}
				break
			}
		}
		if job == nil {
			t.Fatalf("interrupted job %d not in log", id)
		}
		j := res.Jobs[job.i]
		found := false
		for _, r := range fatal {
			if r.ErrCode != o.Code {
				continue
			}
			dt := r.EventTime.Sub(j.EndTime)
			if dt < -10*time.Minute || dt > 10*time.Minute {
				continue
			}
			for _, mp := range raslog.LocationMidplanes(r.Location) {
				if j.Partition.Contains(mp) {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Errorf("interrupted job %d (code %s) has no matching fatal record", id, o.Code)
		}
	}
	if interrupted == 0 {
		t.Fatal("campaign produced no interruptions; raise fault rate")
	}
}

type jobRef struct{ i int }

func TestGroundTruthFaultsOrdered(t *testing.T) {
	res := smallCampaign(t, 4, 10)
	if len(res.Truth.Faults) == 0 {
		t.Fatal("no ground-truth faults")
	}
	for i := 1; i < len(res.Truth.Faults); i++ {
		if res.Truth.Faults[i].Time.Before(res.Truth.Faults[i-1].Time) {
			t.Fatal("faults not time-ordered")
		}
	}
	idle, busy := 0, 0
	for _, f := range res.Truth.Faults {
		if !f.Code.Interrupting {
			continue
		}
		if f.Idle {
			idle++
			if len(f.InterruptedJobs) != 0 {
				t.Fatal("idle fault with interrupted jobs")
			}
		} else {
			busy++
		}
	}
	if idle == 0 || busy == 0 {
		t.Errorf("degenerate idle/busy fault split: %d/%d", idle, busy)
	}
}

func TestResubmissionChains(t *testing.T) {
	res := smallCampaign(t, 5, 14)
	resubs, same := 0, 0
	for _, o := range res.Truth.Outcomes {
		if o.ResubmitOf == 0 {
			continue
		}
		resubs++
		if o.SamePartition {
			same++
		}
		prev, ok := res.Truth.Outcomes[o.ResubmitOf]
		if !ok {
			t.Fatalf("resubmission references unknown job %d", o.ResubmitOf)
		}
		if !prev.Interrupted {
			t.Fatalf("resubmission of a non-interrupted job %d", o.ResubmitOf)
		}
		if prev.Exec != o.Exec {
			t.Fatal("resubmission changed executable")
		}
		if o.ChainFails < 1 {
			t.Fatal("resubmission with zero chain fails")
		}
	}
	if resubs == 0 {
		t.Fatal("no resubmissions observed")
	}
	frac := float64(same) / float64(resubs)
	// The paper measured 57.44% same-partition resubmissions.
	if frac < 0.30 || frac > 0.95 {
		t.Errorf("same-partition resubmission fraction = %v, want ~0.57", frac)
	}
}

func TestNonInterruptingCodesNeverKill(t *testing.T) {
	res := smallCampaign(t, 6, 14)
	for _, f := range res.Truth.Faults {
		if !f.Code.Interrupting && len(f.InterruptedJobs) > 0 {
			t.Fatalf("non-interrupting code %s killed jobs %v", f.Code.Name, f.InterruptedJobs)
		}
	}
	for _, o := range res.Truth.Outcomes {
		if o.Interrupted && (o.Code == errcat.CodeBulkPower || o.Code == errcat.CodeTorusSum) {
			t.Fatalf("job killed by non-interrupting code %s", o.Code)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := smallCampaign(t, 7, 7)
	b := smallCampaign(t, 7, 7)
	if len(a.Jobs) != len(b.Jobs) || len(a.Records) != len(b.Records) {
		t.Fatalf("sizes differ: jobs %d/%d records %d/%d",
			len(a.Jobs), len(b.Jobs), len(a.Records), len(b.Records))
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs", i)
		}
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.SamePartitionProb = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("bad SamePartitionProb accepted")
	}
	bad = good
	bad.BootDelay = -time.Second
	if err := bad.Validate(); err == nil {
		t.Error("negative boot delay accepted")
	}
	bad = good
	bad.ResubmitProb = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("bad ResubmitProb accepted")
	}
	bad = good
	bad.MaxChainResubmits = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative cap accepted")
	}
}

func TestPlaceIntrepid(t *testing.T) {
	m := bgp.NewMachine()
	env := testEngine(t)
	env.rng = newTestRand(1)
	// Wide job prefers the wide region.
	p, ok := placeIntrepid(env, m.AppendCandidates(nil, 32), 32)
	if !ok || p.Start != 32 {
		t.Errorf("wide placement = %+v, want start 32", p)
	}
	// Small job prefers the outer region.
	p, ok = placeIntrepid(env, m.AppendCandidates(nil, 1), 1)
	if !ok || p.Start < 64 {
		t.Errorf("small placement = %+v, want start >= 64", p)
	}
	// Mid-size job stays below the wide region.
	p, ok = placeIntrepid(env, m.AppendCandidates(nil, 8), 8)
	if !ok || p.End() > 32 {
		t.Errorf("mid placement = %+v, want end <= 32", p)
	}
	// 64-wide jobs fully cover the wide region.
	p, ok = placeIntrepid(env, m.AppendCandidates(nil, 64), 64)
	if !ok || overlap(p, wideRegionLo, wideRegionHi) != 32 {
		t.Errorf("64-wide placement = %+v", p)
	}
	// No candidates -> no placement.
	if _, ok := placeIntrepid(env, nil, 8); ok {
		t.Error("placement from empty candidate list")
	}
}

func TestWideJobsRunDuringCampaign(t *testing.T) {
	res := smallCampaign(t, 8, 14)
	// The drain reservation must let wide jobs run before campaign end,
	// not pile up at the tail.
	wideInCampaign := 0
	for _, j := range res.Jobs {
		if j.Partition.Size >= 32 && j.StartTime.Before(res.End) {
			wideInCampaign++
		}
	}
	if wideInCampaign == 0 {
		t.Error("no wide jobs started within the campaign window")
	}
}

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
