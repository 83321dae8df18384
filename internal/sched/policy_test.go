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

// policyCampaign runs a short, fault-rich campaign under the named
// policy; cands != nil switches the engine into replay mode.
func policyCampaign(t *testing.T, seed int64, days int, policy string, cands []faultgen.Candidate) *Result {
	t.Helper()
	cat := errcat.Intrepid()
	spec := workload.DefaultSpec(seed, 1)
	spec.Days = days
	gen, err := workload.New(spec, cat.ByClass(errcat.ClassApplication))
	if err != nil {
		t.Fatal(err)
	}
	model := faultgen.DefaultModel(cat)
	model.BaseRate *= 6
	emitCfg := faultgen.DefaultEmitterConfig()
	emitCfg.NoisePerFatal = 2
	cfg := DefaultConfig(seed)
	cfg.Policy = policy
	cfg.Candidates = cands
	res, err := Run(cfg, gen, model, emitCfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// testCandidates pre-draws a candidate stream matching policyCampaign's
// model and horizon.
func testCandidates(t *testing.T, seed int64, days int) []faultgen.Candidate {
	t.Helper()
	cat := errcat.Intrepid()
	model := faultgen.DefaultModel(cat)
	model.BaseRate *= 6
	start := workload.DefaultSpec(seed, 1).Start
	rng := rand.New(rand.NewSource(seed ^ 0xfa57))
	return model.Candidates(rng, start, start.Add(time.Duration(days)*24*time.Hour))
}

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	if len(names) < 4 {
		t.Fatalf("expected >= 4 registered policies, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("PolicyNames not sorted: %v", names)
		}
	}
	want := map[string]bool{DefaultPolicy: false, "first-fit": false, "random": false, "failure-aware": false, "sjf": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
		p, err := NewPolicy(n)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Errorf("policy %q reports name %q", n, p.Name())
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("policy %q not registered", n)
		}
	}
	if p, err := NewPolicy(""); err != nil || p.Name() != DefaultPolicy {
		t.Errorf("NewPolicy(\"\") = %v, %v; want default", p, err)
	}
	if _, err := NewPolicy("no-such-policy"); err == nil {
		t.Error("unknown policy accepted")
	}
	cfg := DefaultConfig(1)
	cfg.Policy = "no-such-policy"
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted unknown policy")
	}
}

func TestRegisterPolicyPanics(t *testing.T) {
	for _, name := range []string{"", DefaultPolicy} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterPolicy(%q) did not panic", name)
				}
			}()
			RegisterPolicy(name, func() Policy { return intrepidPolicy{} })
		}()
	}
}

// TestPolicyInvariants runs the core engine invariants — no
// double-booked midplanes, every interruption matched by a FATAL
// record on its partition, well-formed resubmission chains — under
// every registered policy.
func TestPolicyInvariants(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			res := policyCampaign(t, 11, 10, name, nil)
			if len(res.Jobs) == 0 || len(res.Records) == 0 {
				t.Fatal("empty campaign")
			}

			// No two jobs hold the same midplane at the same time.
			type iv struct {
				s, e time.Time
				id   int64
			}
			perMp := make([][]iv, bgp.NumMidplanes)
			for _, j := range res.Jobs {
				if !j.Partition.Valid() {
					t.Fatalf("job %d invalid partition %+v", j.ID, j.Partition)
				}
				for mp := j.Partition.Start; mp < j.Partition.End(); mp++ {
					perMp[mp] = append(perMp[mp], iv{j.StartTime, j.EndTime, j.ID})
				}
			}
			for mp, ivs := range perMp {
				for i := range ivs {
					for k := i + 1; k < len(ivs); k++ {
						a, b := ivs[i], ivs[k]
						if a.s.Before(b.e) && b.s.Before(a.e) {
							if over := minTime(a.e, b.e).Sub(maxTime(a.s, b.s)); over > time.Minute {
								t.Fatalf("midplane %d double-booked by jobs %d and %d for %v", mp, a.id, b.id, over)
							}
						}
					}
				}
			}

			// Interruptions have a matching FATAL record on the partition.
			store := raslog.NewStore(res.Records)
			fatal := store.Fatal()
			interrupted := 0
			byID := map[int64]int{}
			for i := range res.Jobs {
				byID[res.Jobs[i].ID] = i
			}
			for id, o := range res.Truth.Outcomes {
				if !o.Interrupted {
					continue
				}
				interrupted++
				j := res.Jobs[byID[id]]
				found := false
				for _, r := range fatal {
					if r.ErrCode != o.Code {
						continue
					}
					if dt := r.EventTime.Sub(j.EndTime); dt < -10*time.Minute || dt > 10*time.Minute {
						continue
					}
					for _, mp := range raslog.RecordMidplanes(r) {
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
				t.Fatal("campaign produced no interruptions")
			}

			// Resubmission chains are well-formed.
			resubs := 0
			for _, o := range res.Truth.Outcomes {
				if o.ResubmitOf == 0 {
					continue
				}
				resubs++
				prev, ok := res.Truth.Outcomes[o.ResubmitOf]
				if !ok || !prev.Interrupted || prev.Exec != o.Exec || o.ChainFails < 1 {
					t.Fatalf("malformed resubmission chain: %+v -> %+v", o, prev)
				}
			}
			if resubs == 0 {
				t.Fatal("no resubmissions observed")
			}
		})
	}
}

// TestPolicyDeterminism reruns each policy (live and replay mode) and
// requires byte-identical logs.
func TestPolicyDeterminism(t *testing.T) {
	cands := testCandidates(t, 12, 7)
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			for _, replay := range []bool{false, true} {
				var c []faultgen.Candidate
				if replay {
					c = cands
				}
				a := policyCampaign(t, 12, 7, name, c)
				b := policyCampaign(t, 12, 7, name, c)
				if len(a.Jobs) != len(b.Jobs) || len(a.Records) != len(b.Records) {
					t.Fatalf("replay=%v sizes differ: jobs %d/%d records %d/%d",
						replay, len(a.Jobs), len(b.Jobs), len(a.Records), len(b.Records))
				}
				for i := range a.Jobs {
					if a.Jobs[i] != b.Jobs[i] {
						t.Fatalf("replay=%v job %d differs", replay, i)
					}
				}
				for i := range a.Records {
					if a.Records[i] != b.Records[i] {
						t.Fatalf("replay=%v record %d differs", replay, i)
					}
				}
			}
		})
	}
}

// TestDefaultPolicyByteIdentical pins the refactor's core promise: an
// explicit -policy=intrepid run is byte-identical to the legacy
// implicit default.
func TestDefaultPolicyByteIdentical(t *testing.T) {
	implicit := policyCampaign(t, 13, 7, "", nil)
	explicit := policyCampaign(t, 13, 7, DefaultPolicy, nil)
	if len(implicit.Jobs) != len(explicit.Jobs) || len(implicit.Records) != len(explicit.Records) {
		t.Fatalf("sizes differ: jobs %d/%d records %d/%d",
			len(implicit.Jobs), len(explicit.Jobs), len(implicit.Records), len(explicit.Records))
	}
	for i := range implicit.Jobs {
		if implicit.Jobs[i] != explicit.Jobs[i] {
			t.Fatalf("job %d differs", i)
		}
	}
	for i := range implicit.Records {
		if implicit.Records[i] != explicit.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestPoliciesDivergeOnSharedStream feeds every policy the identical
// pre-drawn candidate stream and requires the counterfactuals to
// produce different interruption outcomes than the default — the
// whole point of the matrix.
func TestPoliciesDivergeOnSharedStream(t *testing.T) {
	cands := testCandidates(t, 14, 10)
	interruptions := map[string]int{}
	for _, name := range PolicyNames() {
		res := policyCampaign(t, 14, 10, name, cands)
		n := 0
		for _, o := range res.Truth.Outcomes {
			if o.Interrupted {
				n++
			}
		}
		interruptions[name] = n
		if n == 0 {
			t.Fatalf("policy %s saw no interruptions", name)
		}
	}
	distinct := map[int]bool{}
	for _, n := range interruptions {
		distinct[n] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all policies produced identical interruption counts: %v", interruptions)
	}
}

// TestFailureAwareAvoidsSuspectPartitions checks the failure-aware
// hooks directly: suspect partitions are skipped when safe candidates
// exist, and resubmit affinity onto suspect hardware is refused
// without consuming an RNG draw.
func TestFailureAwareAvoidsSuspectPartitions(t *testing.T) {
	e := testEngine(t)
	e.rng = newTestRand(3)
	p, err := NewPolicy("failure-aware")
	if err != nil {
		t.Fatal(err)
	}
	// Midplane 70 is faulty; a small job must land in the outer region
	// but never on a window touching 70.
	e.faulty[70] = &faultState{}
	for i := 0; i < 50; i++ {
		part, ok := p.Place(e, e.machine.AppendCandidates(nil, 1), 1)
		if !ok {
			t.Fatal("no placement")
		}
		if part.Contains(70) {
			t.Fatalf("failure-aware placed onto faulty midplane: %+v", part)
		}
	}
	// A recent FATAL (without a sticky fault) is avoided too.
	delete(e.faulty, 70)
	e.lastFatal[71] = e.now.Add(-time.Hour)
	e.lastFatalSet[71] = true
	for i := 0; i < 50; i++ {
		part, ok := p.Place(e, e.machine.AppendCandidates(nil, 1), 1)
		if !ok {
			t.Fatal("no placement")
		}
		if part.Contains(71) {
			t.Fatalf("failure-aware placed onto recently-fatal midplane: %+v", part)
		}
	}
	// Old FATALs age out of the avoidance window.
	e.lastFatal[71] = e.now.Add(-fatalAvoidWindow - time.Hour)
	hit := false
	for i := 0; i < 200 && !hit; i++ {
		part, _ := p.Place(e, e.machine.AppendCandidates(nil, 1), 1)
		hit = part.Contains(71)
	}
	if !hit {
		t.Error("aged-out FATAL still avoided")
	}

	// Suspect resubmit affinity is refused with zero draws.
	e2 := testEngine(t)
	e2.faulty[10] = &faultState{}
	e2.rng = newTestRand(42)
	ref := newTestRand(42)
	if p.ResubmitAffinity(e2, bgp.Partition{Start: 10, Size: 1}) {
		t.Error("affinity onto faulty partition")
	}
	if e2.rng.Int63() != ref.Int63() {
		t.Error("suspect ResubmitAffinity consumed RNG draws")
	}
}

// TestFailedPlaceConsumesNoDraws enforces the Place contract the
// engine's failedSize memo depends on: a failed placement must leave
// the RNG stream untouched.
func TestFailedPlaceConsumesNoDraws(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			e := testEngine(t)
			e.rng = newTestRand(5)
			p, err := NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			ref := newTestRand(5)
			if _, ok := p.Place(e, nil, 8); ok {
				t.Fatal("placement from empty candidate list")
			}
			if e.rng.Int63() != ref.Int63() {
				t.Error("failed Place consumed RNG draws")
			}
		})
	}
}

func TestCandidateStreamShape(t *testing.T) {
	cat := errcat.Intrepid()
	model := faultgen.DefaultModel(cat)
	start := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	end := start.Add(14 * 24 * time.Hour)
	cands := model.Candidates(rand.New(rand.NewSource(9)), start, end)
	if len(cands) < 2 {
		t.Fatalf("degenerate stream: %d candidates", len(cands))
	}
	for i, c := range cands {
		if i > 0 && c.At.Before(cands[i-1].At) {
			t.Fatal("candidates not time-ordered")
		}
		if c.Midplane < 0 || c.Midplane >= bgp.NumMidplanes {
			t.Fatalf("midplane %d out of range", c.Midplane)
		}
		if c.U < 0 || c.U >= 1 {
			t.Fatalf("uniform %v out of range", c.U)
		}
		if c.Code.Name == "" {
			t.Fatal("candidate without code")
		}
		if i < len(cands)-1 && !c.At.Before(end) {
			t.Fatal("interior candidate at/past end")
		}
	}
	if last := cands[len(cands)-1]; last.At.Before(end) {
		t.Error("stream stopped before reaching end")
	}
	// Same seed, same stream.
	again := model.Candidates(rand.New(rand.NewSource(9)), start, end)
	if len(again) != len(cands) {
		t.Fatalf("redraw length %d vs %d", len(again), len(cands))
	}
	for i := range cands {
		if cands[i] != again[i] {
			t.Fatalf("candidate %d differs on redraw", i)
		}
	}
}
