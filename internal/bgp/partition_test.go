package bgp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartitionStringRoundTrip(t *testing.T) {
	cases := []struct {
		p    Partition
		want string
	}{
		{Partition{Start: 38, Size: 1}, "R23-M0"},
		{Partition{Start: 39, Size: 1}, "R23-M1"},
		{Partition{Start: 38, Size: 2}, "R23"},
		{Partition{Start: 16, Size: 4}, "R10-R11"},
		{Partition{Start: 0, Size: 80}, "R00-R47"},
		{Partition{Start: 1, Size: 2}, "R00-M1..R01-M0"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.p, got, c.want)
		}
		back, err := ParsePartition(c.want)
		if err != nil {
			t.Fatalf("ParsePartition(%q): %v", c.want, err)
		}
		if back != c.p {
			t.Errorf("ParsePartition(%q) = %+v, want %+v", c.want, back, c.p)
		}
	}
}

func TestPartitionRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := PartitionSizes[rng.Intn(len(PartitionSizes))]
		start := rng.Intn(NumMidplanes - size + 1)
		p := Partition{Start: start, Size: size}
		if !p.Valid() {
			return false
		}
		back, err := ParsePartition(p.String())
		return err == nil && back == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParsePartitionErrors(t *testing.T) {
	for _, s := range []string{"", "R23-M0-N08", "R24-R23", "R23-M0..R23-M0-S", "junk"} {
		if _, err := ParsePartition(s); err == nil {
			t.Errorf("ParsePartition(%q): want error", s)
		}
	}
}

func TestPartitionOverlapsContains(t *testing.T) {
	a := Partition{Start: 8, Size: 8}
	b := Partition{Start: 12, Size: 8}
	c := Partition{Start: 16, Size: 4}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a/b should overlap")
	}
	if a.Overlaps(c) {
		t.Error("a/c should not overlap")
	}
	if !b.Overlaps(c) {
		t.Error("b/c should overlap")
	}
	if !a.Contains(8) || !a.Contains(15) || a.Contains(16) || a.Contains(7) {
		t.Error("Contains boundary wrong")
	}
	if n := a.Nodes(); n != 8*NodesPerMidplane {
		t.Errorf("Nodes() = %d", n)
	}
}

func TestPartitionOverlapSymmetryQuick(t *testing.T) {
	f := func(s1, s2 uint8) bool {
		p := Partition{Start: int(s1) % 73, Size: 8}
		q := Partition{Start: int(s2) % 73, Size: 8}
		// Symmetry, and agreement with midplane-set intersection.
		set := map[int]bool{}
		for _, mp := range p.Midplanes() {
			set[mp] = true
		}
		inter := false
		for _, mp := range q.Midplanes() {
			if set[mp] {
				inter = true
			}
		}
		return p.Overlaps(q) == q.Overlaps(p) && p.Overlaps(q) == inter
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMachineAllocateRelease(t *testing.T) {
	m := NewMachine()
	p, err := NewPartition(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Allocate(p); err != nil {
		t.Fatal(err)
	}
	busy := 0
	for mp := 0; mp < NumMidplanes; mp++ {
		if m.Busy(mp) {
			busy++
		}
	}
	if busy != 16 {
		t.Errorf("%d busy midplanes, want 16", busy)
	}
	if err := m.Allocate(Partition{Start: 8, Size: 8}); err == nil {
		t.Error("overlapping Allocate succeeded")
	}
	q, _ := NewPartition(16, 16)
	if err := m.Allocate(q); err != nil {
		t.Errorf("disjoint Allocate failed: %v", err)
	}
	m.Release(p)
	if m.Busy(0) || !m.Busy(16) {
		t.Error("Release cleared wrong midplanes")
	}
}

func TestCandidatesAlignment(t *testing.T) {
	m := NewMachine()
	for _, size := range PartitionSizes {
		cands := m.AppendCandidates(nil, size)
		if len(cands) == 0 {
			t.Fatalf("no candidates for size %d on empty machine", size)
		}
		align := size
		if size == 48 || size == 80 {
			align = 16
		}
		for _, p := range cands {
			if p.Start%align != 0 {
				t.Errorf("size %d candidate start %d not %d-aligned", size, p.Start, align)
			}
			if !p.Valid() {
				t.Errorf("invalid candidate %+v", p)
			}
		}
	}
	if got := m.AppendCandidates(nil, 3); got != nil {
		t.Errorf("AppendCandidates(nil, 3) = %v, want nil", got)
	}
}

func TestAppendCandidatesSkipsBusy(t *testing.T) {
	m := NewMachine()
	if err := m.Allocate(Partition{Start: 0, Size: 8}); err != nil {
		t.Fatal(err)
	}
	cands := m.AppendCandidates(nil, 8)
	if len(cands) != NumMidplanes/8-1 || cands[0].Start != 8 {
		t.Errorf("AppendCandidates(nil, 8) = %v, want every 8-aligned window from 8", cands)
	}
	// The result extends dst and keeps ascending start order.
	dst := []Partition{{Start: 0, Size: 1}}
	got := m.AppendCandidates(dst, 16)
	if len(got) != 1+NumMidplanes/16-1 || got[0] != dst[0] || got[1].Start != 16 {
		t.Errorf("AppendCandidates(dst, 16) = %v", got)
	}
	for i := 2; i < len(got); i++ {
		if got[i].Start <= got[i-1].Start {
			t.Errorf("candidates out of order: %v", got)
		}
	}
	// Fill the machine; then no width has a candidate.
	for _, c := range cands {
		if err := m.Allocate(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range PartitionSizes {
		if got := m.AppendCandidates(nil, size); len(got) != 0 {
			t.Errorf("AppendCandidates(nil, %d) on a full machine = %v", size, got)
		}
	}
}

func TestAppendCandidatesAllocatesNothing(t *testing.T) {
	m := NewMachine()
	buf := make([]Partition, 0, NumMidplanes)
	allocs := testing.AllocsPerRun(100, func() {
		for _, size := range PartitionSizes {
			buf = m.AppendCandidates(buf[:0], size)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendCandidates into a NumMidplanes-capacity buffer allocates %.0f times, want 0", allocs)
	}
}

func TestNextPartitionSize(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 9: 16, 17: 32, 33: 48, 49: 64, 65: 80, 81: 0}
	for in, want := range cases {
		if got := NextPartitionSize(in); got != want {
			t.Errorf("NextPartitionSize(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSortPartitions(t *testing.T) {
	ps := []Partition{{Start: 4, Size: 8}, {Start: 0, Size: 2}, {Start: 0, Size: 1}}
	SortPartitions(ps)
	if ps[0] != (Partition{Start: 0, Size: 1}) || ps[1] != (Partition{Start: 0, Size: 2}) || ps[2] != (Partition{Start: 4, Size: 8}) {
		t.Errorf("SortPartitions wrong order: %v", ps)
	}
}
