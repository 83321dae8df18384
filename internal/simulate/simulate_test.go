package simulate

import (
	"testing"

	"repro/internal/errcat"
	"repro/internal/faultgen"
	"repro/internal/raslog"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestRunSmallCampaign(t *testing.T) {
	camp, err := Run(Config{Seed: 1, Days: 10, NoisePerFatal: 1})
	if err != nil {
		t.Fatal(err)
	}
	if camp.RAS.Len() == 0 || camp.Jobs.Len() == 0 {
		t.Fatal("empty campaign")
	}
	if camp.Catalog.Len() != 82 {
		t.Errorf("catalog size %d", camp.Catalog.Len())
	}
	if len(camp.Result.Truth.Faults) == 0 {
		t.Error("no ground-truth faults")
	}
	// RAS stream contains FATAL and non-FATAL records.
	bySev := countBySeverity(camp.RAS.All())
	if bySev[raslog.SevFatal] == 0 || bySev[raslog.SevInfo] == 0 {
		t.Errorf("severity mix: %v", bySev)
	}
	// Every interrupted job in the oracle exists in the job log.
	ids := map[int64]bool{}
	for _, j := range camp.Jobs.All() {
		ids[j.ID] = true
	}
	for _, id := range camp.Result.Truth.InterruptedJobs() {
		if !ids[id] {
			t.Fatalf("oracle references unknown job %d", id)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Days: 0}); err == nil {
		t.Error("zero days accepted")
	}
}

func TestRunOverrides(t *testing.T) {
	wspec := workload.DefaultSpec(1, 1)
	wspec.JobsPerDay = 50
	scfg := sched.DefaultConfig(2)
	scfg.ResubmitProb = 0
	model := faultgen.DefaultModel(errcat.Intrepid())
	model.BaseRate *= 3
	camp, err := Run(Config{
		Seed: 1, Days: 7, NoisePerFatal: 0.5,
		Workload: &wspec, Sched: &scfg, Model: model,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reduced rate must show in the job log.
	if n := camp.Jobs.Len(); n < 250 || n > 450 {
		t.Errorf("jobs = %d, want ~350 (50/day x 7)", n)
	}
	// With ResubmitProb 0, no outcome is a resubmission.
	for id, o := range camp.Result.Truth.Outcomes {
		if o.ResubmitOf != 0 {
			t.Fatalf("job %d is a resubmission despite ResubmitProb 0", id)
		}
	}
}

func TestNoiseKnob(t *testing.T) {
	quiet, err := Run(Config{Seed: 4, Days: 7, NoisePerFatal: 0})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Run(Config{Seed: 4, Days: 7, NoisePerFatal: 10})
	if err != nil {
		t.Fatal(err)
	}
	qs := countBySeverity(quiet.RAS.All())
	if qs[raslog.SevInfo] != 0 {
		t.Errorf("NoisePerFatal 0 still emitted %d INFO records", qs[raslog.SevInfo])
	}
	if noisy.RAS.Len() <= quiet.RAS.Len() {
		t.Error("noise knob had no effect")
	}
	// The FATAL stream is identical across noise settings.
	if len(quiet.RAS.Fatal()) != len(noisy.RAS.Fatal()) {
		t.Errorf("fatal volume changed with noise: %d vs %d",
			len(quiet.RAS.Fatal()), len(noisy.RAS.Fatal()))
	}
}

// countBySeverity tallies records per severity.
func countBySeverity(recs []raslog.Record) map[raslog.Severity]int {
	m := make(map[raslog.Severity]int)
	for _, r := range recs {
		m[r.Severity]++
	}
	return m
}
