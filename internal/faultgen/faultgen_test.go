package faultgen

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bgp"
	"repro/internal/errcat"
	"repro/internal/raslog"
)

func TestDefaultModelValid(t *testing.T) {
	m := DefaultModel(errcat.Intrepid())
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestModelValidateErrors(t *testing.T) {
	cat := errcat.Intrepid()
	m := DefaultModel(cat)
	m.Catalog = nil
	if err := m.Validate(); err == nil {
		t.Error("nil catalog accepted")
	}
	m = DefaultModel(cat)
	m.BaseRate = 0
	if err := m.Validate(); err == nil {
		t.Error("zero base rate accepted")
	}
	m = DefaultModel(cat)
	m.WideBoost = 0.5
	if err := m.Validate(); err == nil {
		t.Error("wide boost < 1 accepted")
	}
	m = DefaultModel(cat)
	m.AdminAccel = 0
	if err := m.Validate(); err == nil {
		t.Error("zero admin accel accepted")
	}
}

func TestHazardOrdering(t *testing.T) {
	m := DefaultModel(errcat.Intrepid())
	base := m.HazardAt(5, false, 0)
	worn := m.HazardAt(5, false, 2)
	wide := m.HazardAt(5, true, 0)
	if !(base < worn && worn < wide) {
		t.Errorf("hazard ordering violated: base %v, worn %v, wide %v", base, worn, wide)
	}
	lemon := m.HazardAt(59, false, 0)
	if !(lemon > base) {
		t.Errorf("lemon hazard %v not above base %v", lemon, base)
	}
	// Wear saturates at WearCap.
	if m.WearMultiplier(1e9) != m.WearCap {
		t.Errorf("WearMultiplier not capped: %v", m.WearMultiplier(1e9))
	}
	if m.WearMultiplier(0) != 1 {
		t.Errorf("WearMultiplier(0) = %v, want 1", m.WearMultiplier(0))
	}
	// Thinning envelope dominates every reachable hazard.
	for mp := 0; mp < bgp.NumMidplanes; mp++ {
		for _, exp := range []float64{0, 1, 5, 100, 1e6} {
			for _, w := range []bool{false, true} {
				if m.HazardAt(mp, w, exp) > m.MaxHazard()+1e-18 {
					t.Fatalf("hazard(mp=%d,wide=%v,exp=%v) exceeds MaxHazard", mp, w, exp)
				}
			}
		}
	}
	if m.TotalMaxRate() != m.MaxHazard()*bgp.NumMidplanes {
		t.Error("TotalMaxRate inconsistent")
	}
}

func TestDrawSystemCodeOnlySystem(t *testing.T) {
	m := DefaultModel(errcat.Intrepid())
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		c := m.DrawSystemCode(rng)
		if c.Class != errcat.ClassSystem {
			t.Fatalf("drew non-system code %q", c.Name)
		}
		seen[c.Name] = true
	}
	if len(seen) < 30 {
		t.Errorf("only %d distinct system codes drawn; weights too skewed?", len(seen))
	}
}

func TestDrawRepairBimodal(t *testing.T) {
	m := DefaultModel(errcat.Intrepid())
	rng := rand.New(rand.NewSource(2))
	short, long := 0, 0
	for i := 0; i < 5000; i++ {
		d := m.DrawRepair(rng)
		if d < time.Minute {
			t.Fatalf("repair %v below floor", d)
		}
		if d < 2*time.Hour {
			short++
		} else {
			long++
		}
	}
	if short == 0 || long == 0 {
		t.Errorf("repair distribution not bimodal: short=%d long=%d", short, long)
	}
}

func TestDelays(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if d := DetectionDelay(rng); d < 5*time.Second {
			t.Fatalf("detection delay %v below floor", d)
		}
		if d := ReallocKillDelay(rng); d < time.Minute {
			t.Fatalf("realloc kill delay %v below floor", d)
		}
	}
}

func TestEmitFaultStorm(t *testing.T) {
	cat := errcat.Intrepid()
	code, _ := cat.Lookup(errcat.CodeRASStorm)
	e := NewEmitter(DefaultEmitterConfig(), 1)
	at := time.Date(2009, 2, 1, 12, 0, 0, 0, time.UTC)
	e.EmitFault(at, code, []int{10, 11})
	recs := e.Records()
	if len(recs) < 2*DefaultEmitterConfig().DupMin {
		t.Fatalf("storm too small: %d records", len(recs))
	}
	mps := map[int]bool{}
	for _, r := range recs {
		if r.ErrCode != code.Name || r.Severity != raslog.SevFatal {
			t.Fatalf("wrong code/severity: %+v", r)
		}
		if r.EventTime.Before(at) || r.EventTime.After(at.Add(DefaultEmitterConfig().StormSpread)) {
			t.Fatalf("record outside storm window: %v", r.EventTime)
		}
		loc, err := bgp.ParseLocation(r.Location)
		if err != nil {
			t.Fatalf("bad location %q: %v", r.Location, err)
		}
		for _, mp := range loc.Midplanes() {
			mps[mp] = true
		}
	}
	if !mps[10] || !mps[11] {
		t.Errorf("storm midplanes = %v, want 10 and 11", mps)
	}
	// First record of the storm carries the exact fault time.
	if !recs[0].EventTime.Equal(at) {
		t.Errorf("first record at %v, want %v", recs[0].EventTime, at)
	}
}

func TestEmitFaultCapsMidplanes(t *testing.T) {
	cat := errcat.Intrepid()
	code, _ := cat.Lookup(errcat.CodeRASStorm)
	cfg := DefaultEmitterConfig()
	cfg.MaxMidplanes = 2
	e := NewEmitter(cfg, 1)
	e.EmitFault(time.Unix(0, 0).UTC(), code, []int{0, 1, 2, 3, 4})
	mps := map[int]bool{}
	for _, r := range e.Records() {
		loc, _ := bgp.ParseLocation(r.Location)
		for _, mp := range loc.Midplanes() {
			mps[mp] = true
		}
	}
	if len(mps) > 2 {
		t.Errorf("storm touched %d midplanes, cap 2", len(mps))
	}
}

func TestEmitFaultEmpty(t *testing.T) {
	e := NewEmitter(DefaultEmitterConfig(), 1)
	e.EmitFault(time.Now(), errcat.Code{}, nil)
	if len(e.Records()) != 0 {
		t.Error("empty midplane list emitted records")
	}
}

func TestEmitNoiseVolumeAndSeverities(t *testing.T) {
	cfg := DefaultEmitterConfig()
	e := NewEmitter(cfg, 7)
	start := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	end := start.Add(24 * time.Hour)
	e.EmitNoise(start, end, 100)
	recs := e.Records()
	if want := int(cfg.NoisePerFatal * 100); len(recs) != want {
		t.Fatalf("noise volume = %d, want %d", len(recs), want)
	}
	for _, r := range recs {
		if r.Severity == raslog.SevFatal {
			t.Fatal("noise emitted FATAL record")
		}
		if r.EventTime.Before(start) || !r.EventTime.Before(end) {
			t.Fatalf("noise outside campaign: %v", r.EventTime)
		}
		if _, err := bgp.ParseLocation(r.Location); err != nil {
			t.Fatalf("bad noise location %q", r.Location)
		}
	}
}

func TestRenumber(t *testing.T) {
	t0 := time.Unix(1000, 0).UTC()
	recs := []raslog.Record{
		{RecID: 9, Severity: raslog.SevInfo, Component: raslog.CompMMCS, EventTime: t0.Add(time.Hour), Location: "R00-M0"},
		{RecID: 4, Severity: raslog.SevFatal, Component: raslog.CompKernel, EventTime: t0, Location: "R00-M1"},
	}
	out := Renumber(recs)
	if out[0].RecID != 1 || out[1].RecID != 2 {
		t.Errorf("RecIDs = %d,%d", out[0].RecID, out[1].RecID)
	}
	if out[0].EventTime.After(out[1].EventTime) {
		t.Error("not time-sorted")
	}
}

// TestRenumberOwnsInput checks that Renumber sorts and renumbers its
// input in place: the result is the input slice, its RecIDs run 1..n,
// its order is the standard library's stable sort over raslog.Before,
// and the only allocations are the sort's key columns and positions, none
// of them the size of the records.
func TestRenumberOwnsInput(t *testing.T) {
	e := NewEmitter(DefaultEmitterConfig(), 9)
	start := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	end := start.Add(48 * time.Hour)
	code, _ := errcat.Intrepid().Lookup(errcat.CodeDDRController)
	for i := 0; i < 20; i++ {
		e.EmitFault(start.Add(time.Duration(i)*2*time.Hour), code, []int{i % 5, 7})
	}
	e.EmitNoise(start, end, len(e.Records()))
	orig := slices.Clone(e.Records())
	n := len(orig)

	want := slices.Clone(orig)
	sort.SliceStable(want, func(i, j int) bool { return raslog.Before(&want[i], &want[j]) })
	in := slices.Clone(orig)
	out := Renumber(in)
	if len(out) != n || &out[0] != &in[0] {
		t.Fatal("Renumber did not return its input slice")
	}
	for i := range out {
		if out[i].RecID != int64(i+1) {
			t.Fatalf("record %d: RecID %d, want %d", i, out[i].RecID, i+1)
		}
		w := want[i]
		w.RecID = int64(i + 1)
		if out[i] != w {
			t.Fatalf("record %d = %+v, want %+v", i, out[i], w)
		}
	}

	work := make([]raslog.Record, n)
	if got := testing.AllocsPerRun(5, func() {
		copy(work, orig)
		Renumber(work)
	}); got > 1 {
		t.Errorf("Renumber allocates %.0f times, want at most 1 (the sort's key columns and positions)", got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		copy(work, orig)
		Renumber(work)
	}
	runtime.ReadMemStats(&after)
	if perRec := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(n); perRec >= float64(unsafe.Sizeof(raslog.Record{})) {
		t.Errorf("Renumber allocates %.0f bytes a record, as much as a record: it copies its input", perRec)
	}
}

func TestEmitterDeterminism(t *testing.T) {
	cat := errcat.Intrepid()
	code, _ := cat.Lookup(errcat.CodeDDRController)
	mk := func() []raslog.Record {
		e := NewEmitter(DefaultEmitterConfig(), 42)
		e.EmitFault(time.Unix(5000, 0).UTC(), code, []int{3})
		return e.Records()
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestSerialMatchesSprintf pins the serial number format to the
// fmt.Sprintf("44V%07dK%04d") it replaced, draw for draw.
func TestSerialMatchesSprintf(t *testing.T) {
	const seed = 5
	e := NewEmitter(DefaultEmitterConfig(), seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 10000; i++ {
		want := fmt.Sprintf("44V%07dK%04d", rng.Intn(1e7), rng.Intn(1e4))
		if got := e.serial(); got != want {
			t.Fatalf("draw %d: serial = %q, want %q", i, got, want)
		}
	}
}

func TestFormatSerialEdges(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {9999999, 9999}, {0, 9999}, {9999999, 0}, {9999, 9999}, {1234567, 42}} {
		want := fmt.Sprintf("44V%07dK%04d", c[0], c[1])
		if got := formatSerial(c[0], c[1]); got != want {
			t.Errorf("formatSerial(%d, %d) = %q, want %q", c[0], c[1], got, want)
		}
	}
}
