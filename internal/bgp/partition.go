package bgp

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// PartitionSizes lists the job sizes (in midplanes) the Intrepid control
// system supports; the midplane is the minimum schedulable partition.
var PartitionSizes = []int{1, 2, 4, 8, 16, 32, 48, 64, 80}

// ValidPartitionSize reports whether n midplanes is an allocatable
// partition size.
func ValidPartitionSize(n int) bool {
	for _, s := range PartitionSizes {
		if s == n {
			return true
		}
	}
	return false
}

// NextPartitionSize returns the smallest allocatable partition size that
// is >= n midplanes, or 0 if n exceeds the machine.
func NextPartitionSize(n int) int {
	for _, s := range PartitionSizes {
		if s >= n {
			return s
		}
	}
	return 0
}

// Partition is a contiguous block of midplanes allocated to one job,
// identified by the global index of its first midplane and its size.
// Contiguity in global midplane index is a simplification of the real
// torus-cabling constraints; it preserves the property the paper relies
// on: wide jobs occupy many specific midplanes at once.
type Partition struct {
	// Start is the global index of the first midplane.
	Start int
	// Size is the number of midplanes, one of PartitionSizes.
	Size int
}

// ErrBadPartition reports an invalid partition specification.
var ErrBadPartition = errors.New("bgp: bad partition")

// NewPartition validates and returns a partition.
func NewPartition(start, size int) (Partition, error) {
	p := Partition{Start: start, Size: size}
	if !p.Valid() {
		return Partition{}, fmt.Errorf("%w: start=%d size=%d", ErrBadPartition, start, size)
	}
	return p, nil
}

// Valid reports whether the partition fits the machine and has an
// allocatable size.
func (p Partition) Valid() bool {
	return p.Start >= 0 && ValidPartitionSize(p.Size) && p.Start+p.Size <= NumMidplanes
}

// End returns the exclusive upper bound of the partition's midplane range.
func (p Partition) End() int { return p.Start + p.Size }

// Contains reports whether global midplane mp is inside the partition.
func (p Partition) Contains(mp int) bool { return mp >= p.Start && mp < p.End() }

// Overlaps reports whether two partitions share any midplane.
func (p Partition) Overlaps(q Partition) bool {
	return p.Start < q.End() && q.Start < p.End()
}

// Midplanes returns the global midplane indices covered by the partition.
func (p Partition) Midplanes() []int {
	out := make([]int, p.Size)
	for i := range out {
		out[i] = p.Start + i
	}
	return out
}

// Nodes returns the number of compute nodes in the partition.
func (p Partition) Nodes() int { return p.Size * NodesPerMidplane }

// String renders the partition as a rack-midplane range, matching the
// style of the Cobalt job log (e.g. "R23-M0" for one midplane,
// "R10-R11" for a multi-rack block, "R23-M0..R24-M1" for general
// midplane ranges).
func (p Partition) String() string {
	var buf [24]byte
	return string(p.AppendTo(buf[:0]))
}

// AppendTo appends the partition's String form to dst without
// formatting through fmt.
func (p Partition) AppendTo(dst []byte) []byte {
	first := MidplaneLocation(p.Start)
	if p.Size == 1 {
		return first.AppendTo(dst)
	}
	last := MidplaneLocation(p.End() - 1)
	// Whole-rack-aligned blocks print as rack ranges, like the
	// Intrepid job log ("R10-R11").
	if p.Start%MidplanesPerRack == 0 && p.Size%MidplanesPerRack == 0 {
		fr := RackLocation(first.Row, first.Col)
		lr := RackLocation(last.Row, last.Col)
		dst = fr.AppendTo(dst)
		if fr == lr {
			return dst
		}
		return lr.AppendTo(append(dst, '-'))
	}
	return last.AppendTo(append(first.AppendTo(dst), '.', '.'))
}

// ParsePartition parses the formats emitted by Partition.String.
func ParsePartition(s string) (Partition, error) {
	if i := strings.Index(s, ".."); i >= 0 {
		first, err := ParseLocation(s[:i])
		if err != nil {
			return Partition{}, err
		}
		last, err := ParseLocation(s[i+2:])
		if err != nil {
			return Partition{}, err
		}
		if first.Kind != KindMidplane || last.Kind != KindMidplane {
			return Partition{}, fmt.Errorf("%w: %q: range endpoints must be midplanes", ErrBadPartition, s)
		}
		start := first.MidplaneIndex()
		size := last.MidplaneIndex() - start + 1
		return NewPartition(start, size)
	}
	// Try a single location first (rack or midplane).
	if loc, err := ParseLocation(s); err == nil {
		switch loc.Kind {
		case KindMidplane:
			return NewPartition(loc.MidplaneIndex(), 1)
		case KindRack:
			return NewPartition(loc.RackIndex()*MidplanesPerRack, MidplanesPerRack)
		default:
			return Partition{}, fmt.Errorf("%w: %q: not a schedulable unit", ErrBadPartition, s)
		}
	}
	// Rack range "Rab-Rcd".
	parts := strings.Split(s, "-")
	if len(parts) == 2 {
		fr, err1 := ParseLocation(parts[0])
		lr, err2 := ParseLocation(parts[1])
		if err1 == nil && err2 == nil && fr.Kind == KindRack && lr.Kind == KindRack {
			start := fr.RackIndex() * MidplanesPerRack
			end := (lr.RackIndex() + 1) * MidplanesPerRack
			if end <= start {
				return Partition{}, fmt.Errorf("%w: %q: reversed rack range", ErrBadPartition, s)
			}
			return NewPartition(start, end-start)
		}
	}
	return Partition{}, fmt.Errorf("%w: %q", ErrBadPartition, s)
}

// Machine tracks which midplanes are currently allocated and answers
// the scheduler's placement queries. It is not safe for concurrent use;
// the scheduler serializes access.
type Machine struct {
	busy [NumMidplanes]bool
}

// NewMachine returns an empty machine.
func NewMachine() *Machine { return &Machine{} }

// Free reports whether every midplane of p is idle.
func (m *Machine) Free(p Partition) bool {
	for mp := p.Start; mp < p.End(); mp++ {
		if m.busy[mp] {
			return false
		}
	}
	return true
}

// Allocate marks the partition busy. It returns an error if any
// midplane is already busy.
func (m *Machine) Allocate(p Partition) error {
	if !p.Valid() {
		return fmt.Errorf("%w: %+v", ErrBadPartition, p)
	}
	if !m.Free(p) {
		return fmt.Errorf("bgp: partition %s not free", p)
	}
	for mp := p.Start; mp < p.End(); mp++ {
		m.busy[mp] = true
	}
	return nil
}

// Release marks the partition idle.
func (m *Machine) Release(p Partition) {
	for mp := p.Start; mp < p.End(); mp++ {
		m.busy[mp] = false
	}
}

// Busy reports whether midplane mp is allocated.
func (m *Machine) Busy(mp int) bool { return m.busy[mp] }

// AppendCandidates appends every aligned free partition of the given
// size to dst, in ascending start order, and returns the extended
// slice; an invalid size appends nothing. Partitions are aligned to
// their size (or to 16 for the irregular 48- and 80-midplane sizes),
// which approximates the torus-wiring constraints of the real machine.
// At most NumMidplanes partitions are appended, so a dst with that
// capacity never grows.
func (m *Machine) AppendCandidates(dst []Partition, size int) []Partition {
	if !ValidPartitionSize(size) {
		return dst
	}
	align := size
	if size == 48 || size == 80 {
		align = 16
	}
	for start := 0; start+size <= NumMidplanes; start += align {
		p := Partition{Start: start, Size: size}
		if m.Free(p) {
			dst = append(dst, p)
		}
	}
	return dst
}

// SortPartitions orders partitions by start then size; handy for
// deterministic iteration in tests and reports.
func SortPartitions(ps []Partition) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Start != ps[j].Start {
			return ps[i].Start < ps[j].Start
		}
		return ps[i].Size < ps[j].Size
	})
}
