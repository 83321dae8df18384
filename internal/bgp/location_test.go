package bgp

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseLocationForms(t *testing.T) {
	cases := []struct {
		in   string
		kind LocationKind
		mp   int // expected MidplaneIndex, -1 for rack
	}{
		{"R00", KindRack, -1},
		{"R47", KindRack, -1},
		{"R23-M0", KindMidplane, (2*8 + 3) * 2},
		{"R23-M1", KindMidplane, (2*8+3)*2 + 1},
		{"R04-M0-S", KindServiceCard, (0*8 + 4) * 2},
		{"R04-M1-L3", KindLinkCard, (0*8+4)*2 + 1},
		{"R40-M0-N15", KindNodeCard, (4 * 8) * 2},
		{"R40-M0-N08-J31", KindComputeNode, (4 * 8) * 2},
	}
	for _, c := range cases {
		loc, err := ParseLocation(c.in)
		if err != nil {
			t.Fatalf("ParseLocation(%q): %v", c.in, err)
		}
		if loc.Kind != c.kind {
			t.Errorf("ParseLocation(%q).Kind = %v, want %v", c.in, loc.Kind, c.kind)
		}
		if got := loc.MidplaneIndex(); got != c.mp {
			t.Errorf("ParseLocation(%q).MidplaneIndex() = %d, want %d", c.in, got, c.mp)
		}
		if got := loc.String(); got != c.in {
			t.Errorf("round trip: %q -> %q", c.in, got)
		}
	}
}

func TestParseLocationErrors(t *testing.T) {
	bad := []string{
		"", "X23", "R2", "R234", "Rab",
		"R23-", "R23-M", "R23-M2", "R23-M0-", "R23-M0-X1",
		"R23-M0-N16", "R23-M0-L4", "R23-M0-N08-J32", "R23-M0-N08-K01",
		"R23-M0-S-J01", "R53-M0", "R28-M0", "R23-M0-N08-J09-X",
	}
	for _, s := range bad {
		if _, err := ParseLocation(s); err == nil {
			t.Errorf("ParseLocation(%q): want error, got nil", s)
		}
	}
}

func TestLocationRoundTripQuick(t *testing.T) {
	// Property: every constructed valid location round-trips through
	// String/ParseLocation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mp := rng.Intn(NumMidplanes)
		var loc Location
		switch rng.Intn(6) {
		case 0:
			loc = RackLocation(rng.Intn(Rows), rng.Intn(RacksPerRow))
		case 1:
			loc = MidplaneLocation(mp)
		case 2:
			loc = ServiceCardLocation(mp)
		case 3:
			loc = LinkCardLocation(mp, rng.Intn(LinkCardsPerMidplane))
		case 4:
			loc = NodeCardLocation(mp, rng.Intn(NodeCardsPerMidplane))
		default:
			loc = ComputeNodeLocation(mp, rng.Intn(NodeCardsPerMidplane), rng.Intn(NodesPerNodeCard))
		}
		if !loc.Valid() {
			return false
		}
		got, err := ParseLocation(loc.String())
		return err == nil && got == loc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMidplaneIndexRoundTrip(t *testing.T) {
	for mp := 0; mp < NumMidplanes; mp++ {
		loc := MidplaneLocation(mp)
		if !loc.Valid() {
			t.Fatalf("MidplaneLocation(%d) invalid: %+v", mp, loc)
		}
		if got := loc.MidplaneIndex(); got != mp {
			t.Fatalf("MidplaneLocation(%d).MidplaneIndex() = %d", mp, got)
		}
	}
}

func TestLocationMidplanes(t *testing.T) {
	r := RackLocation(1, 2)
	mps := r.Midplanes()
	if len(mps) != 2 || mps[0] != 20 || mps[1] != 21 {
		t.Errorf("rack Midplanes() = %v, want [20 21]", mps)
	}
	n := ComputeNodeLocation(33, 4, 5)
	mps = n.Midplanes()
	if len(mps) != 1 || mps[0] != 33 {
		t.Errorf("node Midplanes() = %v, want [33]", mps)
	}
}

func TestGeometryConstants(t *testing.T) {
	if NumMidplanes != 80 {
		t.Errorf("NumMidplanes = %d, want 80 (Intrepid)", NumMidplanes)
	}
	if NumNodes != 40960 {
		t.Errorf("NumNodes = %d, want 40960 (Intrepid)", NumNodes)
	}
	if NumNodes*CoresPerNode != 163840 {
		t.Errorf("cores = %d, want 163840", NumNodes*CoresPerNode)
	}
}

func TestLocationKindString(t *testing.T) {
	for k, want := range map[LocationKind]string{
		KindInvalid: "invalid", KindRack: "rack", KindMidplane: "midplane",
		KindNodeCard: "nodecard", KindComputeNode: "computenode",
		KindServiceCard: "servicecard", KindLinkCard: "linkcard",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseLocationRejectsLowercase(t *testing.T) {
	if _, err := ParseLocation(strings.ToLower("R23-M0")); err == nil {
		t.Error("lowercase location accepted")
	}
}
