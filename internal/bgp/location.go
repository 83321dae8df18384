// Package bgp models the physical geometry of a Blue Gene/P machine:
// racks, midplanes, node cards, compute nodes, service and link cards,
// and the location-code grammar used by the Core Monitoring and Control
// System (CMCS) in RAS records.
//
// The default geometry mirrors Intrepid, the 40-rack Blue Gene/P system
// at Argonne National Laboratory: five rows (R0x..R4x) of eight racks,
// two midplanes per rack, 512 quad-core compute nodes per midplane
// (40,960 nodes, 163,840 cores), plus per-midplane service hardware.
package bgp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// LocationKind identifies which level of the hardware hierarchy a
// location code names.
type LocationKind int

const (
	// KindInvalid is the zero value; it never appears in a valid Location.
	KindInvalid LocationKind = iota
	// KindRack names a whole rack, e.g. "R23".
	KindRack
	// KindMidplane names one midplane of a rack, e.g. "R23-M0".
	KindMidplane
	// KindNodeCard names a node card within a midplane, e.g. "R23-M0-N08".
	KindNodeCard
	// KindComputeNode names a compute node on a node card,
	// e.g. "R23-M0-N08-J09".
	KindComputeNode
	// KindServiceCard names the service card of a midplane, e.g. "R23-M0-S".
	KindServiceCard
	// KindLinkCard names a link card of a midplane, e.g. "R23-M0-L2".
	KindLinkCard
)

// String returns a human-readable name for the kind.
func (k LocationKind) String() string {
	switch k {
	case KindRack:
		return "rack"
	case KindMidplane:
		return "midplane"
	case KindNodeCard:
		return "nodecard"
	case KindComputeNode:
		return "computenode"
	case KindServiceCard:
		return "servicecard"
	case KindLinkCard:
		return "linkcard"
	default:
		return "invalid"
	}
}

// Geometry constants for an Intrepid-like installation.
const (
	// Rows is the number of rack rows (R0..R4).
	Rows = 5
	// RacksPerRow is the number of racks in each row.
	RacksPerRow = 8
	// NumRacks is the total rack count.
	NumRacks = Rows * RacksPerRow
	// MidplanesPerRack is fixed by the Blue Gene/P packaging.
	MidplanesPerRack = 2
	// NumMidplanes is the total midplane count (80 on Intrepid).
	NumMidplanes = NumRacks * MidplanesPerRack
	// NodeCardsPerMidplane is fixed by the Blue Gene/P packaging.
	NodeCardsPerMidplane = 16
	// NodesPerNodeCard is fixed by the Blue Gene/P packaging.
	NodesPerNodeCard = 32
	// NodesPerMidplane is 512 on Blue Gene/P.
	NodesPerMidplane = NodeCardsPerMidplane * NodesPerNodeCard
	// NumNodes is the total compute-node count (40,960 on Intrepid).
	NumNodes = NumMidplanes * NodesPerMidplane
	// CoresPerNode is 4 (quad-core PowerPC 450).
	CoresPerNode = 4
	// LinkCardsPerMidplane is the number of link cards per midplane.
	LinkCardsPerMidplane = 4
	// ComputeNodesPerIONode is the compute-to-I/O node ratio on Intrepid.
	ComputeNodesPerIONode = 64
)

// Location is a parsed Blue Gene/P location code. The zero value is
// invalid. Fields below the location's kind are -1; for example a
// midplane location has Node == -1 and Card == -1.
type Location struct {
	// Kind states how deep in the hierarchy the code reaches.
	Kind LocationKind
	// Row is the rack row, 0..Rows-1.
	Row int
	// Col is the rack column within the row, 0..RacksPerRow-1.
	Col int
	// Mid is the midplane within the rack (0 or 1), or -1 for
	// rack-level locations.
	Mid int
	// Card is the node-card or link-card index, or -1.
	Card int
	// Node is the compute-node (J) index on its node card, or -1.
	Node int
}

// ErrBadLocation reports an unparseable location code.
var ErrBadLocation = errors.New("bgp: bad location code")

// RackLocation returns a rack-level location.
func RackLocation(row, col int) Location {
	return Location{Kind: KindRack, Row: row, Col: col, Mid: -1, Card: -1, Node: -1}
}

// MidplaneLocation returns a midplane-level location for the global
// midplane index mp (0..NumMidplanes-1).
func MidplaneLocation(mp int) Location {
	rack := mp / MidplanesPerRack
	return Location{
		Kind: KindMidplane,
		Row:  rack / RacksPerRow,
		Col:  rack % RacksPerRow,
		Mid:  mp % MidplanesPerRack,
		Card: -1,
		Node: -1,
	}
}

// NodeCardLocation returns a node-card location inside midplane mp.
func NodeCardLocation(mp, card int) Location {
	l := MidplaneLocation(mp)
	l.Kind = KindNodeCard
	l.Card = card
	return l
}

// ComputeNodeLocation returns a compute-node location inside midplane mp.
func ComputeNodeLocation(mp, card, node int) Location {
	l := NodeCardLocation(mp, card)
	l.Kind = KindComputeNode
	l.Node = node
	return l
}

// ServiceCardLocation returns the service-card location of midplane mp.
func ServiceCardLocation(mp int) Location {
	l := MidplaneLocation(mp)
	l.Kind = KindServiceCard
	return l
}

// LinkCardLocation returns link card `card` (0..3) of midplane mp.
func LinkCardLocation(mp, card int) Location {
	l := MidplaneLocation(mp)
	l.Kind = KindLinkCard
	l.Card = card
	return l
}

// Valid reports whether the location's fields are within the machine
// geometry for its kind.
func (l Location) Valid() bool {
	if l.Row < 0 || l.Row >= Rows || l.Col < 0 || l.Col >= RacksPerRow {
		return false
	}
	switch l.Kind {
	case KindRack:
		return l.Mid == -1 && l.Card == -1 && l.Node == -1
	case KindMidplane:
		return l.Mid >= 0 && l.Mid < MidplanesPerRack && l.Card == -1 && l.Node == -1
	case KindServiceCard:
		return l.Mid >= 0 && l.Mid < MidplanesPerRack && l.Card == -1 && l.Node == -1
	case KindNodeCard:
		return l.Mid >= 0 && l.Mid < MidplanesPerRack &&
			l.Card >= 0 && l.Card < NodeCardsPerMidplane && l.Node == -1
	case KindLinkCard:
		return l.Mid >= 0 && l.Mid < MidplanesPerRack &&
			l.Card >= 0 && l.Card < LinkCardsPerMidplane && l.Node == -1
	case KindComputeNode:
		return l.Mid >= 0 && l.Mid < MidplanesPerRack &&
			l.Card >= 0 && l.Card < NodeCardsPerMidplane &&
			l.Node >= 0 && l.Node < NodesPerNodeCard
	default:
		return false
	}
}

// RackIndex returns the global rack index, 0..NumRacks-1.
func (l Location) RackIndex() int { return l.Row*RacksPerRow + l.Col }

// MidplaneIndex returns the global midplane index 0..NumMidplanes-1, or
// -1 for rack-level locations (a rack spans two midplanes).
func (l Location) MidplaneIndex() int {
	if l.Mid < 0 {
		return -1
	}
	return l.RackIndex()*MidplanesPerRack + l.Mid
}

// Midplanes returns the global midplane indices the location touches.
// A rack-level location touches both of its midplanes; every other kind
// touches exactly one.
func (l Location) Midplanes() []int {
	if l.Kind == KindRack {
		base := l.RackIndex() * MidplanesPerRack
		return []int{base, base + 1}
	}
	if mp := l.MidplaneIndex(); mp >= 0 {
		return []int{mp}
	}
	return nil
}

// String renders the canonical CMCS location code, e.g. "R23-M0-N08-J09".
func (l Location) String() string {
	var buf [24]byte
	return string(l.AppendTo(buf[:0]))
}

// AppendTo appends the canonical CMCS location code (String's bytes)
// to dst without formatting through fmt. An unknown kind renders as
// "R??".
func (l Location) AppendTo(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, 'R')
	dst = strconv.AppendInt(dst, int64(l.Row), 10)
	dst = strconv.AppendInt(dst, int64(l.Col), 10)
	switch l.Kind {
	case KindRack:
		return dst
	case KindMidplane:
		return appendMid(dst, l.Mid)
	case KindServiceCard:
		return append(appendMid(dst, l.Mid), '-', 'S')
	case KindLinkCard:
		return strconv.AppendInt(append(appendMid(dst, l.Mid), '-', 'L'), int64(l.Card), 10)
	case KindNodeCard:
		return appendPad2(append(appendMid(dst, l.Mid), '-', 'N'), l.Card)
	case KindComputeNode:
		dst = appendPad2(append(appendMid(dst, l.Mid), '-', 'N'), l.Card)
		return appendPad2(append(dst, '-', 'J'), l.Node)
	default:
		return append(dst[:n], "R??"...)
	}
}

// appendMid appends the "-M<mid>" midplane segment.
func appendMid(dst []byte, mid int) []byte {
	return strconv.AppendInt(append(dst, '-', 'M'), int64(mid), 10)
}

// appendPad2 appends v the way fmt's %02d does: a leading zero for a
// single non-negative digit, plain digits (and sign) otherwise.
func appendPad2(dst []byte, v int) []byte {
	if v >= 0 && v < 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// ParseLocation parses a CMCS location code. Accepted forms:
//
//	R23               rack
//	R23-M0            midplane
//	R23-M0-S          service card
//	R23-M0-L2         link card
//	R23-M0-N08        node card
//	R23-M0-N08-J09    compute node
func ParseLocation(s string) (Location, error) {
	parts := strings.Split(s, "-")
	if len(parts) == 0 || len(parts) > 4 {
		return Location{}, fmt.Errorf("%w: %q", ErrBadLocation, s)
	}
	loc := Location{Mid: -1, Card: -1, Node: -1}

	// Rack: "Rrc" with two digits.
	r := parts[0]
	if len(r) != 3 || r[0] != 'R' {
		return Location{}, fmt.Errorf("%w: %q: want rack like R23", ErrBadLocation, s)
	}
	row, err1 := strconv.Atoi(r[1:2])
	col, err2 := strconv.Atoi(r[2:3])
	if err1 != nil || err2 != nil {
		return Location{}, fmt.Errorf("%w: %q: non-numeric rack", ErrBadLocation, s)
	}
	loc.Row, loc.Col = row, col
	loc.Kind = KindRack
	if len(parts) == 1 {
		return checkParsed(loc, s)
	}

	// Midplane: "Mx".
	m := parts[1]
	if len(m) != 2 || m[0] != 'M' {
		return Location{}, fmt.Errorf("%w: %q: want midplane like M0", ErrBadLocation, s)
	}
	mid, err := strconv.Atoi(m[1:])
	if err != nil {
		return Location{}, fmt.Errorf("%w: %q: non-numeric midplane", ErrBadLocation, s)
	}
	loc.Mid = mid
	loc.Kind = KindMidplane
	if len(parts) == 2 {
		return checkParsed(loc, s)
	}

	// Third segment: S, Lx, or Nxx.
	t := parts[2]
	switch {
	case t == "S":
		loc.Kind = KindServiceCard
		if len(parts) != 3 {
			return Location{}, fmt.Errorf("%w: %q: trailing segment after service card", ErrBadLocation, s)
		}
		return checkParsed(loc, s)
	case len(t) == 2 && t[0] == 'L':
		card, err := strconv.Atoi(t[1:])
		if err != nil {
			return Location{}, fmt.Errorf("%w: %q: non-numeric link card", ErrBadLocation, s)
		}
		loc.Kind = KindLinkCard
		loc.Card = card
		if len(parts) != 3 {
			return Location{}, fmt.Errorf("%w: %q: trailing segment after link card", ErrBadLocation, s)
		}
		return checkParsed(loc, s)
	case len(t) == 3 && t[0] == 'N':
		card, err := strconv.Atoi(t[1:])
		if err != nil {
			return Location{}, fmt.Errorf("%w: %q: non-numeric node card", ErrBadLocation, s)
		}
		loc.Kind = KindNodeCard
		loc.Card = card
	default:
		return Location{}, fmt.Errorf("%w: %q: unknown segment %q", ErrBadLocation, s, t)
	}
	if len(parts) == 3 {
		return checkParsed(loc, s)
	}

	// Fourth segment: "Jxx" compute node.
	j := parts[3]
	if len(j) != 3 || j[0] != 'J' {
		return Location{}, fmt.Errorf("%w: %q: want compute node like J09", ErrBadLocation, s)
	}
	node, err := strconv.Atoi(j[1:])
	if err != nil {
		return Location{}, fmt.Errorf("%w: %q: non-numeric compute node", ErrBadLocation, s)
	}
	loc.Kind = KindComputeNode
	loc.Node = node
	return checkParsed(loc, s)
}

func checkParsed(l Location, s string) (Location, error) {
	if !l.Valid() {
		return Location{}, fmt.Errorf("%w: %q: out of machine geometry", ErrBadLocation, s)
	}
	return l, nil
}

// MustParseLocation is ParseLocation that panics on error; for tests
// and literals.
func MustParseLocation(s string) Location {
	l, err := ParseLocation(s)
	if err != nil {
		panic(err)
	}
	return l
}
