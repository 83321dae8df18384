package sched

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/errcat"
	"repro/internal/faultgen"
	"repro/internal/workload"
)

func testEngine(t *testing.T) *engine {
	t.Helper()
	cat := errcat.Intrepid()
	model := faultgen.DefaultModel(cat)
	e := &engine{
		cfg:     DefaultConfig(1),
		model:   model,
		machine: bgp.NewMachine(),
		faulty:  make(map[int]*faultState),
		start:   time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC),
	}
	e.now = e.start
	e.end = e.start.Add(30 * 24 * time.Hour)
	e.envMult = []float64{2, 0.5, 1}
	return e
}

func TestOriginFirst(t *testing.T) {
	p := bgp.Partition{Start: 8, Size: 4}
	mps := originFirst(p, 10)
	if mps[0] != 10 {
		t.Errorf("origin not first: %v", mps)
	}
	if len(mps) != 4 {
		t.Errorf("wrong length: %v", mps)
	}
	seen := map[int]bool{}
	for _, mp := range mps {
		seen[mp] = true
	}
	for mp := 8; mp < 12; mp++ {
		if !seen[mp] {
			t.Errorf("midplane %d missing: %v", mp, mps)
		}
	}
	// Origin outside the partition leaves order untouched.
	mps = originFirst(p, 50)
	if mps[0] != 8 {
		t.Errorf("foreign origin reordered: %v", mps)
	}
}

func TestEnvAt(t *testing.T) {
	e := testEngine(t)
	if got := e.envAt(e.start.Add(time.Hour)); got != 2 {
		t.Errorf("day 0 multiplier = %v, want 2", got)
	}
	if got := e.envAt(e.start.Add(25 * time.Hour)); got != 0.5 {
		t.Errorf("day 1 multiplier = %v, want 0.5", got)
	}
	// Before the campaign or past the table: neutral.
	if got := e.envAt(e.start.Add(-time.Hour)); got != 1 {
		t.Errorf("pre-campaign multiplier = %v, want 1", got)
	}
	if got := e.envAt(e.start.Add(1000 * 24 * time.Hour)); got != 1 {
		t.Errorf("post-table multiplier = %v, want 1", got)
	}
}

func TestExposureDecay(t *testing.T) {
	e := testEngine(t)
	e.wearE[5] = 4
	e.wearT[5] = e.now
	if got := e.exposure(5, e.now); got != 4 {
		t.Errorf("exposure now = %v", got)
	}
	later := e.now.Add(e.model.WearTau)
	got := e.exposure(5, later)
	if got > 4/2.5 || got < 4/3 { // e^-1 ≈ 0.368
		t.Errorf("exposure after one tau = %v, want ~%v", got, 4*0.368)
	}
	if e.exposure(6, e.now) != 0 {
		t.Error("untouched midplane has exposure")
	}
}

func TestBlockedByHoldAndReservation(t *testing.T) {
	e := testEngine(t)
	p := bgp.Partition{Start: 0, Size: 2}
	wMine := &waiting{exec: 1}
	wOther := &waiting{exec: 2}

	// Hold for exec 1 blocks exec 2 but not exec 1.
	e.held[0] = hold{exec: 1, until: e.now.Add(time.Hour)}
	if e.blocked(p, wMine) {
		t.Error("own hold blocked the holder")
	}
	if !e.blocked(p, wOther) {
		t.Error("foreign hold did not block")
	}
	// Expired holds are cleared lazily.
	e.now = e.now.Add(2 * time.Hour)
	if e.blocked(p, wOther) {
		t.Error("expired hold still blocks")
	}
	if e.held[0] != (hold{}) {
		t.Error("expired hold not deleted")
	}

	// Reservations block everyone but the reserver.
	e.reserver = wMine
	e.reserved[1] = true
	if !e.blocked(p, wOther) {
		t.Error("reservation did not block")
	}
	if e.blocked(p, wMine) {
		t.Error("reservation blocked the reserver")
	}
}

func TestReserveWindowPrefersShortRemaining(t *testing.T) {
	e := testEngine(t)
	// Occupy the wide-region window with a long job and an alternative
	// window with a short one; the reservation should pick the short.
	long := &run{runID: 1, part: bgp.Partition{Start: 32, Size: 32}, started: true,
		startT: e.now, runtime: 100 * time.Hour}
	short := &run{runID: 2, part: bgp.Partition{Start: 0, Size: 32}, started: true,
		startT: e.now, runtime: 30 * time.Minute}
	for mp := 32; mp < 64; mp++ {
		e.mpOwner[mp] = long
	}
	for mp := 0; mp < 32; mp++ {
		e.mpOwner[mp] = short
	}
	win := reserveIntrepid(e, 32)
	if win.Start != 0 {
		t.Errorf("reserveWindow picked start %d, want 0 (shortest remaining occupant)", win.Start)
	}
	// On an empty machine the wide region wins the tie.
	e2 := testEngine(t)
	win = reserveIntrepid(e2, 32)
	if win.Start != 32 {
		t.Errorf("empty-machine reservation start %d, want 32 (wide region)", win.Start)
	}
}

func TestPickVictimsDeterministicBound(t *testing.T) {
	e := testEngine(t)
	e.running = map[int64]*run{}
	for i := int64(1); i <= 5; i++ {
		e.running[i] = &run{runID: i, started: true}
	}
	e.rng = newTestRand(7)
	v := e.pickVictims(1)
	if len(v) < 1 || len(v) > e.cfg.SharedVictimMax {
		t.Fatalf("victims = %d, want 1..%d", len(v), e.cfg.SharedVictimMax)
	}
	for _, r := range v {
		if r.runID == 1 {
			t.Error("excluded run selected as victim")
		}
	}
}

// TestTrySchedulePassAllocFree pins the cost of a scheduling pass that
// places nothing: a deep queue over a machine with no usable window
// must be scanned without a heap allocation. Only midplanes 10-11 and
// 64-65 are free. 64-65 are held for an executable that is not queued,
// and the region policy keeps the narrow widths off 10-11, so the
// narrow widths still reach the candidate scan, the hold check and
// the policy's Place. One job prefers a held previous partition, and
// a starving 32-wide job drains [32, 64).
func TestTrySchedulePassAllocFree(t *testing.T) {
	for _, name := range []string{DefaultPolicy, "failure-aware"} {
		t.Run(name, func(t *testing.T) {
			e := testEngine(t)
			e.rng = newTestRand(1)
			policy, err := NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			e.policy = policy
			sizes := []int{1, 2, 4, 8, 16, 32, 48, 64, 80}
			for i, s := range sizes {
				e.execs = append(e.execs, workload.ExecSpec{Path: fmt.Sprintf("/x/%d", i), Size: s})
			}
			heldFor := len(e.execs)
			e.execs = append(e.execs, workload.ExecSpec{Path: "/x/held", Size: 2})
			for _, p := range []bgp.Partition{{Start: 0, Size: 8}, {Start: 8, Size: 2}, {Start: 12, Size: 4},
				{Start: 16, Size: 16}, {Start: 32, Size: 32}, {Start: 66, Size: 2}, {Start: 68, Size: 4}, {Start: 72, Size: 8}} {
				if err := e.machine.Allocate(p); err != nil {
					t.Fatal(err)
				}
			}
			until := e.now.Add(time.Hour)
			e.held[64] = hold{exec: heldFor, until: until}
			e.held[65] = hold{exec: heldFor, until: until}

			const depth = 1000
			for i := 0; i < depth; i++ {
				exec := i % len(sizes)
				e.queue = append(e.queue, &waiting{exec: exec, size: sizes[exec], runtime: time.Hour, queueT: e.now})
			}
			e.queue[5].queueT = e.now.Add(-time.Hour) // 32 wide
			w := e.queue[3]
			w.exec, w.size = 0, 1
			w.prev, w.hasPrev, w.tryPrev = bgp.Partition{Start: 64, Size: 1}, true, true

			allocs := testing.AllocsPerRun(20, e.trySchedule)
			if len(e.queue) != depth {
				t.Fatalf("pass placed %d jobs, want none", depth-len(e.queue))
			}
			if e.reserver != e.queue[5] || e.reservePart != (bgp.Partition{Start: 32, Size: 32}) {
				t.Fatalf("drain reservation %+v for %p, want [32, 64) for the starving 32-wide job", e.reservePart, e.reserver)
			}
			if allocs != 0 {
				t.Errorf("a scheduling pass over %d queued jobs allocates %.0f times, want 0", depth, allocs)
			}
		})
	}
}
