package errcat

import (
	"strings"
	"testing"

	"repro/internal/raslog"
)

func TestIntrepidCensus(t *testing.T) {
	cat := Intrepid()
	if got := cat.Len(); got != 82 {
		t.Fatalf("catalog size = %d, want 82 (paper: 82 FATAL ERRCODE types)", got)
	}
	sys := cat.ByClass(ClassSystem)
	app := cat.ByClass(ClassApplication)
	if len(app) != 8 {
		t.Errorf("application types = %d, want 8 (Obs. 2)", len(app))
	}
	nonInt := cat.Interrupting(false)
	if len(nonInt) != 2 {
		t.Errorf("non-interrupting types = %d, want 2 (BULK_POWER_FATAL, torus)", len(nonInt))
	}
	// 72 system types include the 2 non-interrupting alarms.
	if len(sys) != 74 {
		t.Errorf("system types = %d, want 74 (72 interrupting + 2 alarms)", len(sys))
	}
	interruptingSys := 0
	for _, c := range sys {
		if c.Interrupting {
			interruptingSys++
		}
	}
	if interruptingSys != 72 {
		t.Errorf("interrupting system types = %d, want 72 (Obs. 2)", interruptingSys)
	}
}

func TestIntrepidComponents(t *testing.T) {
	cat := Intrepid()
	// No fatal code reports from the APPLICATION component: that is the
	// paper's motivation for co-analysis (§IV-B).
	for _, c := range cat.All() {
		if c.Component == raslog.CompApplication {
			t.Errorf("code %q reports from APPLICATION; the paper observed none", c.Name)
		}
	}
	// Six components carry fatal codes.
	comps := map[raslog.Component]bool{}
	for _, c := range cat.All() {
		comps[c.Component] = true
	}
	if len(comps) != 6 {
		t.Errorf("components with fatal codes = %d, want 6", len(comps))
	}
	// KERNEL carries roughly 75% of fatal volume by weight.
	share := ComponentShare(cat)[raslog.CompKernel]
	if share < 0.65 || share > 0.90 {
		t.Errorf("KERNEL weight share = %.3f, want ~0.75", share)
	}
	// Application errors report from KERNEL, making COMPONENT useless
	// for class separation.
	for _, c := range cat.ByClass(ClassApplication) {
		if c.Component != raslog.CompKernel {
			t.Errorf("app error %q reports from %v, want KERNEL", c.Name, c.Component)
		}
	}
}

func TestIntrepidNamedCodes(t *testing.T) {
	cat := Intrepid()
	cases := []struct {
		name         string
		class        Class
		interrupting bool
		sticky       bool
		shared       bool
	}{
		{CodeRASStorm, ClassSystem, true, true, false},
		{CodeDDRController, ClassSystem, true, true, false},
		{CodeFSConfig, ClassSystem, true, true, false},
		{CodeLinkCard, ClassSystem, true, true, false},
		{CodeBulkPower, ClassSystem, false, false, false},
		{CodeTorusSum, ClassSystem, false, false, false},
		{CodeCiodHungProxy, ClassApplication, true, false, true},
		{CodeScriptError, ClassApplication, true, false, true},
		{CodeInvalidMemAddr, ClassApplication, true, false, false},
		{CodeOutOfMemory, ClassApplication, true, false, false},
	}
	for _, c := range cases {
		code, ok := cat.Lookup(c.name)
		if !ok {
			t.Errorf("Lookup(%q): missing", c.name)
			continue
		}
		if code.Class != c.class || code.Interrupting != c.interrupting ||
			code.Sticky != c.sticky || code.Shared != c.shared {
			t.Errorf("%q = class=%v int=%v sticky=%v shared=%v, want %+v",
				c.name, code.Class, code.Interrupting, code.Sticky, code.Shared, c)
		}
	}
	if _, ok := cat.Lookup("no_such_code"); ok {
		t.Error("Lookup of unknown code succeeded")
	}
}

func TestNewRejectsBadCatalogs(t *testing.T) {
	good := Code{Name: "a", Component: raslog.CompKernel, Weight: 1}
	if _, err := New([]Code{good, good}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := New([]Code{{Name: "", Weight: 1}}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New([]Code{{Name: "x", Weight: 0}}); err == nil {
		t.Error("zero weight accepted")
	}
}

func TestNamesSortedUnique(t *testing.T) {
	cat := Intrepid()
	names := cat.Names()
	if len(names) != cat.Len() {
		t.Fatalf("Names len = %d, want %d", len(names), cat.Len())
	}
	for i := 1; i < len(names); i++ {
		if strings.Compare(names[i-1], names[i]) >= 0 {
			t.Fatalf("Names not strictly sorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
}

func TestAllReturnsCopy(t *testing.T) {
	cat := Intrepid()
	a := cat.All()
	a[0].Name = "mutated"
	if b := cat.All(); b[0].Name == "mutated" {
		t.Error("All() exposes internal slice")
	}
}

func TestClassString(t *testing.T) {
	if ClassSystem.String() != "system" || ClassApplication.String() != "application" {
		t.Error("Class.String wrong")
	}
}

// ComponentShare returns, per component, the fraction of total weight
// contributed by that component's codes (over the whole catalog): the
// oracle for the weights' ~75% KERNEL share, here and in census_test.
func ComponentShare(c *Catalog) map[raslog.Component]float64 {
	total := 0.0
	per := make(map[raslog.Component]float64)
	for _, code := range c.codes {
		total += code.Weight
		per[code.Component] += code.Weight
	}
	for k := range per {
		per[k] /= total
	}
	return per
}
