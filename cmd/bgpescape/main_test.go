package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCodecRootsExist keeps rule 3's root table honest: every listed
// codec root must still be declared in a gated package, so a renamed
// or deleted root fails here instead of quietly dropping out of the
// zero-escape assertion.
func TestCodecRootsExist(t *testing.T) {
	gated := toSet(escapePackages)
	for importPath, roots := range codecRoots {
		rel, ok := strings.CutPrefix(importPath, "repro/")
		if !ok || !gated["./"+rel] {
			t.Errorf("codec package %s is not in escapePackages", importPath)
			continue
		}
		srcs, err := filepath.Glob(filepath.Join("..", "..", rel, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		declared := make(map[string]bool)
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			spans, err := funcSpans(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range spans {
				declared[s.name] = true
			}
		}
		for _, fn := range roots {
			if !declared[fn] {
				t.Errorf("codec root %s.%s is not declared in %s", importPath, fn, rel)
			}
		}
	}
}

// TestCollectSeesBoxing compiles a fixture package whose function
// boxes an int into fmt.Sprint's interface argument. go1.24 files
// that escape under code "escape", not "escapes"; a parser that reads
// only the latter reports nothing here.
func TestCollectSeesBoxing(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module boxfixture\n\ngo 1.22\n",
		"box.go": "package boxfixture\n\nimport \"fmt\"\n\nfunc Label(x int) string {\n\treturn fmt.Sprint(x)\n}\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, buildOut, err := collect(dir, []string{"."})
	if err != nil {
		t.Fatalf("collect: %v\n%s", err, buildOut)
	}
	if len(rep.Packages) != 1 || rep.Packages[0].ImportPath != "boxfixture" {
		t.Fatalf("packages = %+v, want only boxfixture", rep.Packages)
	}
	want := Escape{File: "box.go", Func: "Label", Message: "x escapes to heap", Count: 1}
	for _, e := range rep.Packages[0].Escapes {
		if e == want {
			return
		}
	}
	t.Errorf("escapes = %+v, want %+v", rep.Packages[0].Escapes, want)
}

func TestFuncSpansAndOwner(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "x.go")
	code := `package x

var m = map[string]int{}

func Top() int {
	return 1
}

type R struct{}

func (r *R) Method() {
	_ = m
}

func (r R) Value() {}

type G[T any] struct{}

func (g *G[T]) Gen() {}
`
	if err := os.WriteFile(src, []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	spans, err := funcSpans(src)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		line int
		want string
	}{
		{3, ""}, // package-level var
		{6, "Top"},
		{12, "R.Method"},
		{15, "R.Value"},
		{19, "G.Gen"},
	}
	for _, c := range cases {
		if got := owner(spans, c.line); got != c.want {
			t.Errorf("owner(line %d) = %q, want %q", c.line, got, c.want)
		}
	}
}

// writeDiagFile lays out a package diagnostics dir the way the
// compiler does: header line naming the source file, then one JSON
// diagnostic per line.
func writeDiagFile(t *testing.T, dir, name, srcFile string, diags ...string) {
	t.Helper()
	lines := append([]string{`{"version":0,"package":"p","file":"` + srcFile + `"}`}, diags...)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestParseDiagDir(t *testing.T) {
	root := t.TempDir()
	src := filepath.Join(root, "y.go")
	code := `package y

var boot = map[string]int{}

func Hot() {
	_ = boot
}

func Cold() {}
`
	if err := os.WriteFile(src, []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	diag := filepath.Join(root, "diag")
	pkgDir := filepath.Join(diag, "example.com%2Fy")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeDiagFile(t, pkgDir, "y.json", src,
		// Package-scope escape: excluded (init-time only).
		`{"range":{"start":{"line":3,"character":1}},"code":"escapes","message":"map literal escapes to heap"}`,
		// Two identical in-function escapes: multiset count 2.
		`{"range":{"start":{"line":6,"character":2}},"code":"escapes","message":"boot escapes to heap"}`,
		`{"range":{"start":{"line":6,"character":9}},"code":"escapes","message":"boot escapes to heap"}`,
		// go1.24 files interface boxing under "escape": counted.
		`{"range":{"start":{"line":6,"character":4}},"code":"escape","message":"x escapes to heap"}`,
		// Noise the parser must ignore: an empty-message "escape"
		// placeholder, and other codes.
		`{"range":{"start":{"line":6,"character":2}},"code":"escape","message":""}`,
		`{"range":{"start":{"line":6,"character":2}},"code":"leak","message":"parameter x leaks"}`,
		`{"range":{"start":{"line":6,"character":2}},"code":"isInBounds","message":""}`,
		// Inlining verdicts.
		`{"range":{"start":{"line":5,"character":6}},"code":"cannotInlineFunction","message":"function too complex"}`,
		`{"range":{"start":{"line":9,"character":6}},"code":"canInlineFunction","message":"cost: 2"}`,
	)
	pkgs, err := parseDiagDir(diag, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.ImportPath != "example.com/y" {
		t.Errorf("import path %q not unescaped", p.ImportPath)
	}
	want := []Escape{
		{File: "y.go", Func: "Hot", Message: "boot escapes to heap", Count: 2},
		{File: "y.go", Func: "Hot", Message: "x escapes to heap", Count: 1},
	}
	if !reflect.DeepEqual(p.Escapes, want) {
		t.Errorf("escapes = %+v, want %+v (file made root-relative)", p.Escapes, want)
	}
	if len(p.Inlinable) != 1 || p.Inlinable[0] != "Cold" {
		t.Errorf("inlinable = %v, want [Cold]", p.Inlinable)
	}
	if len(p.NotInlinable) != 1 || p.NotInlinable[0] != "Hot" {
		t.Errorf("notInlinable = %v, want [Hot]", p.NotInlinable)
	}
}

func rep(pkgs ...Package) *Report {
	return &Report{Schema: SchemaV1, GeneratedWith: currentHost(), Packages: pkgs}
}

func TestDiffReports(t *testing.T) {
	base := rep(Package{
		ImportPath: "m/p",
		Escapes:    []Escape{{File: "p.go", Func: "F", Message: "x escapes to heap", Count: 1}},
		Inlinable:  []string{"F", "G"},
	})
	// Identical: clean.
	if fails := diffReports(base, base); len(fails) != 0 {
		t.Errorf("identical reports: %v", fails)
	}
	// Count growth on a known site fails; a shrunken site passes.
	grown := rep(Package{
		ImportPath: "m/p",
		Escapes:    []Escape{{File: "p.go", Func: "F", Message: "x escapes to heap", Count: 3}},
		Inlinable:  []string{"F", "G"},
	})
	if fails := diffReports(base, grown); len(fails) != 1 || !strings.Contains(fails[0], "new heap escape ×2") {
		t.Errorf("count growth: %v", fails)
	}
	if fails := diffReports(grown, base); len(fails) != 0 {
		t.Errorf("count shrink should pass: %v", fails)
	}
	// A brand-new site in a brand-new package fails.
	newPkg := rep(base.Packages[0], Package{
		ImportPath: "m/q",
		Escapes:    []Escape{{File: "q.go", Func: "H", Message: "y escapes to heap", Count: 1}},
	})
	if fails := diffReports(base, newPkg); len(fails) != 1 || !strings.Contains(fails[0], "m/q") {
		t.Errorf("new package site: %v", fails)
	}
	// Lost inlining fails; a function inlinable in some instantiations
	// and not others does not.
	lost := rep(Package{
		ImportPath:   "m/p",
		Escapes:      base.Packages[0].Escapes,
		Inlinable:    []string{"F"},
		NotInlinable: []string{"G"},
	})
	if fails := diffReports(base, lost); len(fails) != 1 || !strings.Contains(fails[0], "G lost inlining") {
		t.Errorf("lost inlining: %v", fails)
	}
	mixed := rep(Package{
		ImportPath:   "m/p",
		Escapes:      base.Packages[0].Escapes,
		Inlinable:    []string{"F", "G"},
		NotInlinable: []string{"G"},
	})
	if fails := diffReports(base, mixed); len(fails) != 0 {
		t.Errorf("mixed instantiation verdicts should pass: %v", fails)
	}
}

func TestCodecEscapesAssertion(t *testing.T) {
	// A per-event root of an ingest codec package must trip rule 3...
	bad := rep(Package{
		ImportPath: "repro/internal/raslog",
		Escapes:    []Escape{{File: "record.go", Func: "Record.UnmarshalFields", Message: "z escapes to heap", Count: 1}},
	})
	fails := codecEscapes(bad)
	if len(fails) != 1 || !strings.Contains(fails[0], "Record.UnmarshalFields") {
		t.Errorf("codec root escape: %v", fails)
	}
	// ...while non-root functions and non-codec packages do not.
	ok := rep(
		Package{
			ImportPath: "repro/internal/raslog",
			Escapes:    []Escape{{File: "store.go", Func: "NewStore", Message: "z escapes to heap", Count: 1}},
		},
		Package{
			ImportPath: "repro/internal/store",
			Escapes:    []Escape{{File: "segment.go", Func: "Segment.AppendRow", Message: "sealed error escapes to heap", Count: 1}},
		},
	)
	if fails := codecEscapes(ok); len(fails) != 0 {
		t.Errorf("non-protected escapes tripped rule 3: %v", fails)
	}
}

// TestCompareStaleBaseline is the end-to-end contract for a baseline
// that has rotted behind the code: comparing a report with a site the
// baseline does not know must exit 1 and name the site, and a
// toolchain mismatch must skip the diff (exit 0) while still running
// the codec assertion.
func TestCompareStaleBaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *Report) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeReport(f, r); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	base := write("base.json", rep(Package{ImportPath: "m/p"}))
	cur := write("cur.json", rep(Package{
		ImportPath: "m/p",
		Escapes:    []Escape{{File: "p.go", Func: "F", Message: "x escapes to heap", Count: 1}},
	}))

	var out, errb bytes.Buffer
	if code := run([]string{"compare", "-baseline", base, "-current", cur}, &out, &errb); code != 1 {
		t.Fatalf("stale baseline: exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "new heap escape") || !strings.Contains(out.String(), "make escape-baseline") {
		t.Errorf("stale-baseline output missing violation or remedy:\n%s", out.String())
	}

	// Same reports, but the baseline claims another compiler minor:
	// the diff is skipped and the run passes.
	otherHost := rep(Package{ImportPath: "m/p"})
	otherHost.GeneratedWith.Go = "go9.99.0"
	baseOld := write("base-old.json", otherHost)
	out.Reset()
	if code := run([]string{"compare", "-baseline", baseOld, "-current", cur}, &out, &errb); code != 0 {
		t.Fatalf("toolchain mismatch: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "SKIP baseline comparison") {
		t.Errorf("mismatch output missing SKIP notice:\n%s", out.String())
	}
	if strings.Contains(out.String(), "::warning") {
		t.Errorf("annotation emitted outside GitHub Actions:\n%s", out.String())
	}
	out.Reset()
	t.Setenv("GITHUB_ACTIONS", "true")
	if code := run([]string{"compare", "-baseline", baseOld, "-current", cur}, &out, &errb); code != 0 {
		t.Fatalf("toolchain mismatch under CI: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "::warning title=bgpescape gate skipped::") {
		t.Errorf("CI skip missing ::warning:: annotation:\n%s", out.String())
	}
	t.Setenv("GITHUB_ACTIONS", "")

	// Toolchain mismatch must NOT mute the codec zero-escape rule.
	curCodec := write("cur-codec.json", rep(Package{
		ImportPath: "repro/internal/joblog",
		Escapes:    []Escape{{File: "joblog.go", Func: "Job.UnmarshalFields", Message: "x escapes to heap", Count: 1}},
	}))
	out.Reset()
	if code := run([]string{"compare", "-baseline", baseOld, "-current", curCodec}, &out, &errb); code != 1 {
		t.Fatalf("codec escape under mismatch: exit %d, want 1\n%s", code, out.String())
	}
}

// TestCommittedBaselineLoads keeps the committed baseline loadable and
// host-stamped; a schema bump without a baseline regeneration fails
// here rather than in CI's compare step.
func TestCommittedBaselineLoads(t *testing.T) {
	rep, err := readReportFile(filepath.Join("..", "..", "escape.baseline.json"))
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	if len(rep.Packages) != len(escapePackages) {
		t.Errorf("baseline covers %d packages, escapePackages has %d", len(rep.Packages), len(escapePackages))
	}
	if fails := codecEscapes(rep); len(fails) != 0 {
		t.Errorf("committed baseline violates the codec zero-escape rule: %v", fails)
	}
}
