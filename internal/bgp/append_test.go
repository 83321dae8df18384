package bgp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fmtLocationString is the fmt-based rendering Location.String used
// before AppendTo; it is the oracle AppendTo must match byte for byte,
// out-of-geometry and unknown-kind locations included.
func fmtLocationString(l Location) string {
	var b strings.Builder
	fmt.Fprintf(&b, "R%d%d", l.Row, l.Col)
	switch l.Kind {
	case KindRack:
		return b.String()
	case KindMidplane:
		fmt.Fprintf(&b, "-M%d", l.Mid)
	case KindServiceCard:
		fmt.Fprintf(&b, "-M%d-S", l.Mid)
	case KindLinkCard:
		fmt.Fprintf(&b, "-M%d-L%d", l.Mid, l.Card)
	case KindNodeCard:
		fmt.Fprintf(&b, "-M%d-N%02d", l.Mid, l.Card)
	case KindComputeNode:
		fmt.Fprintf(&b, "-M%d-N%02d-J%02d", l.Mid, l.Card, l.Node)
	default:
		return "R??"
	}
	return b.String()
}

// fmtPartitionString is the Partition.String composition over
// fmtLocationString.
func fmtPartitionString(p Partition) string {
	first := MidplaneLocation(p.Start)
	last := MidplaneLocation(p.End() - 1)
	if p.Size == 1 {
		return fmtLocationString(first)
	}
	if p.Start%MidplanesPerRack == 0 && p.Size%MidplanesPerRack == 0 {
		fr := RackLocation(first.Row, first.Col)
		lr := RackLocation(last.Row, last.Col)
		if fr == lr {
			return fmtLocationString(fr)
		}
		return fmtLocationString(fr) + "-" + fmtLocationString(lr)
	}
	return fmtLocationString(first) + ".." + fmtLocationString(last)
}

// edgeInt draws field values around the formatting boundaries: the
// %02d padding edge, negatives and the int extremes.
func edgeInt(rng *rand.Rand) int {
	edges := []int{-1, 0, 1, 9, 10, 11, 99, 100, -9, -10, -11, math.MaxInt, math.MinInt}
	if rng.Intn(3) == 0 {
		return edges[rng.Intn(len(edges))]
	}
	return rng.Intn(200) - 50
}

func TestLocationAppendToMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prefix := []byte("x|")
	for i := 0; i < 20000; i++ {
		l := Location{
			Kind: LocationKind(rng.Intn(9) - 1),
			Row:  edgeInt(rng), Col: edgeInt(rng), Mid: edgeInt(rng),
			Card: edgeInt(rng), Node: edgeInt(rng),
		}
		want := fmtLocationString(l)
		if got := l.String(); got != want {
			t.Fatalf("%+v.String() = %q, want %q", l, got, want)
		}
		if got := string(l.AppendTo(append([]byte(nil), prefix...))); got != string(prefix)+want {
			t.Fatalf("%+v.AppendTo = %q, want %q", l, got, string(prefix)+want)
		}
	}
}

func TestPartitionAppendToMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(p Partition) {
		t.Helper()
		want := fmtPartitionString(p)
		if got := p.String(); got != want {
			t.Fatalf("%+v.String() = %q, want %q", p, got, want)
		}
		if got := string(p.AppendTo([]byte("|"))); got != "|"+want {
			t.Fatalf("%+v.AppendTo = %q, want %q", p, got, "|"+want)
		}
	}
	for start := -3; start <= NumMidplanes+3; start++ {
		for size := -2; size <= NumMidplanes+2; size++ {
			check(Partition{Start: start, Size: size})
		}
	}
	for i := 0; i < 5000; i++ {
		check(Partition{Start: edgeInt(rng), Size: edgeInt(rng)})
	}
}

// TestPartitionStringRoundTripsEveryShape parses back every valid
// partition: single midplanes, rack-aligned blocks (one rack and rack
// ranges) and ".." midplane ranges.
func TestPartitionStringRoundTripsEveryShape(t *testing.T) {
	shapes := map[string]int{}
	for _, size := range PartitionSizes {
		for start := 0; start+size <= NumMidplanes; start++ {
			p := Partition{Start: start, Size: size}
			s := p.String()
			back, err := ParsePartition(s)
			if err != nil || back != p {
				t.Fatalf("ParsePartition(%q) = %+v, %v; want %+v", s, back, err, p)
			}
			switch {
			case size == 1:
				shapes["midplane"]++
			case strings.Contains(s, ".."):
				shapes["range"]++
			case strings.Contains(s, "-"):
				shapes["racks"]++
			default:
				shapes["rack"]++
			}
		}
	}
	for _, shape := range []string{"midplane", "range", "racks", "rack"} {
		if shapes[shape] == 0 {
			t.Errorf("no %s-shaped partition rendered", shape)
		}
	}
}

func TestAppendToAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 64)
	loc := ComputeNodeLocation(45, 8, 9)
	parts := []Partition{{Start: 38, Size: 1}, {Start: 38, Size: 2}, {Start: 16, Size: 4}, {Start: 1, Size: 2}}
	if n := testing.AllocsPerRun(100, func() {
		buf = loc.AppendTo(buf[:0])
		for _, p := range parts {
			buf = p.AppendTo(buf[:0])
		}
	}); n != 0 {
		t.Errorf("AppendTo allocates %v times per run", n)
	}
}
