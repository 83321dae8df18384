package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// SchemaV1 identifies the escape-report JSON layout. Bump only with a
// new reader in the CI gate; old baselines must stay loadable.
const SchemaV1 = "repro/bgpescape/v1"

// Report is the machine-readable escape-analysis report the CI gate
// diffs. It is deliberately line-free: escapes are multisets keyed by
// (file, function, message) and inlining is keyed by function name, so
// unrelated edits that shift code up or down a file never churn the
// committed baseline.
type Report struct {
	Schema string `json:"schema"`
	// GeneratedWith pins the toolchain: escape analysis and inlining
	// budgets change between compiler minors, so cross-minor (or
	// cross-GOOS/GOARCH) comparisons are skipped, visibly.
	GeneratedWith Host      `json:"generated_with"`
	Packages      []Package `json:"packages"`
}

// Host is the metadata that must match for an escape comparison to be
// meaningful. Unlike bgpbench, CPU count is irrelevant: the compiler's
// escape verdicts do not depend on parallelism.
type Host struct {
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
}

func currentHost() Host {
	return Host{Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}

// goMinor reduces "go1.24.3" to "go1.24": escape analysis is stable
// across patch releases but not assumed so across minors.
func goMinor(v string) string {
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 {
		return v
	}
	return parts[0] + "." + parts[1]
}

// Comparable reports whether escape verdicts from the two hosts can be
// gated against each other, with a reason when they cannot.
func (h Host) Comparable(o Host) (bool, string) {
	switch {
	case goMinor(h.Go) != goMinor(o.Go):
		return false, fmt.Sprintf("go version %s vs %s", h.Go, o.Go)
	case h.GOOS != o.GOOS:
		return false, fmt.Sprintf("GOOS %s vs %s", h.GOOS, o.GOOS)
	case h.GOARCH != o.GOARCH:
		return false, fmt.Sprintf("GOARCH %s vs %s", h.GOARCH, o.GOARCH)
	}
	return true, ""
}

// Package is one gated package's escape and inlining inventory.
// Escapes is sorted by (File, Func, Message); the name lists are
// sorted and deduplicated. Generic instantiations can surface a
// function under a source file from another package (e.g. a symtab
// dictionary instantiated into filter); they are inventoried where the
// compiler charges them.
type Package struct {
	ImportPath string   `json:"import_path"`
	Escapes    []Escape `json:"escapes,omitempty"`
	// Inlinable and NotInlinable record the compiler's verdict per
	// function; a name moving from the former to the latter is a lost
	// inlining and fails the gate.
	Inlinable    []string `json:"inlinable,omitempty"`
	NotInlinable []string `json:"not_inlinable,omitempty"`
}

// Escape is one distinct heap-escape site: a (file, function, message)
// triple with a multiset count, line-free so baselines survive
// unrelated edits. Func is "Recv.Name" for methods, "Name" for
// functions; package-scope escapes (var initializers, init-time only)
// are excluded from reports entirely.
type Escape struct {
	File    string `json:"file"`
	Func    string `json:"func"`
	Message string `json:"message"`
	Count   int    `json:"count"`
}

func (e Escape) key() string { return e.File + "|" + e.Func + "|" + e.Message }

// diagLine is one line of the compiler's -json=0 diagnostics stream
// (LSP-shaped). The first line of each file is a header carrying the
// package path and source file instead.
type diagLine struct {
	Version *int   `json:"version"`
	Package string `json:"package"`
	File    string `json:"file"`
	Code    string `json:"code"`
	Range   struct {
		Start struct {
			Line int `json:"line"`
		} `json:"start"`
	} `json:"range"`
	Message string `json:"message"`
}

// funcSpan maps a line range of a source file to the declaration that
// covers it, so positional diagnostics can be attributed to functions.
type funcSpan struct {
	start, end int
	name       string
}

// funcSpans parses src (no type-checking) and returns the line spans of
// its top-level function declarations, sorted by start line.
func funcSpans(src string) ([]funcSpan, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var spans []funcSpan
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		spans = append(spans, funcSpan{
			start: fset.Position(fd.Pos()).Line,
			end:   fset.Position(fd.End()).Line,
			name:  declName(fd),
		})
	}
	return spans, nil
}

// declName renders a FuncDecl as "Recv.Name" or "Name", stripping
// pointers and type parameters from the receiver — the shape
// codecRoots uses.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// owner returns the name of the declaration covering line, or "" for
// package scope.
func owner(spans []funcSpan, line int) string {
	for _, s := range spans {
		if s.start <= line && line <= s.end {
			return s.name
		}
	}
	return ""
}

// parseDiagDir walks the -json output directory (one url-escaped
// subdirectory per package, one .json file per source file) into
// Package inventories. root is the directory source paths are made
// relative to in the report.
func parseDiagDir(dir, root string) ([]Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var pkgs []Package
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		importPath, err := url.PathUnescape(e.Name())
		if err != nil {
			importPath = e.Name()
		}
		pkg, err := parsePackageDir(filepath.Join(dir, e.Name()), importPath, root)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, *pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

func parsePackageDir(dir, importPath, root string) (*Package, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]*Escape)
	canInline := make(map[string]bool)
	cannotInline := make(map[string]bool)
	for _, fe := range files {
		if fe.IsDir() || !strings.HasSuffix(fe.Name(), ".json") {
			continue
		}
		if err := parseDiagFile(filepath.Join(dir, fe.Name()), root, counts, canInline, cannotInline); err != nil {
			return nil, err
		}
	}
	pkg := &Package{ImportPath: importPath}
	for _, e := range counts {
		pkg.Escapes = append(pkg.Escapes, *e)
	}
	sort.Slice(pkg.Escapes, func(i, j int) bool { return pkg.Escapes[i].key() < pkg.Escapes[j].key() })
	pkg.Inlinable = sortedKeys(canInline)
	pkg.NotInlinable = sortedKeys(cannotInline)
	return pkg, nil
}

func parseDiagFile(path, root string, counts map[string]*Escape, canInline, cannotInline map[string]bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 {
		return nil
	}
	var hdr diagLine
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Version == nil {
		return fmt.Errorf("%s: missing diagnostics header", path)
	}
	src := hdr.File
	if src == "" || strings.Contains(src, "<autogenerated>") {
		return nil // synthesized wrappers: nothing attributable
	}
	spans, err := funcSpans(src)
	if err != nil {
		return fmt.Errorf("parsing %s: %v", src, err)
	}
	rel := src
	if r, err := filepath.Rel(root, src); err == nil && !strings.HasPrefix(r, "..") {
		rel = filepath.ToSlash(r)
	}
	for _, l := range lines[1:] {
		if strings.TrimSpace(l) == "" {
			continue
		}
		var d diagLine
		if err := json.Unmarshal([]byte(l), &d); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		fn := owner(spans, d.Range.Start.Line)
		switch d.Code {
		case "escape", "escapes":
			// go1.24 reports interface boxing, &T{} literals and most
			// maps under "escape"; its empty-message lines are
			// placeholders beside an "escapes" line at the same spot.
			// Package-scope escapes (fn == "") are init-time only.
			if fn == "" || d.Message == "" {
				continue
			}
			e := Escape{File: rel, Func: fn, Message: d.Message}
			if prev, ok := counts[e.key()]; ok {
				prev.Count++
			} else {
				e.Count = 1
				counts[e.key()] = &e
			}
		case "canInlineFunction":
			if fn != "" {
				canInline[fn] = true
			}
		case "cannotInlineFunction":
			if fn != "" {
				cannotInline[fn] = true
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func writeReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func readReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, err
	}
	if rep.Schema != SchemaV1 {
		return nil, fmt.Errorf("unsupported schema %q (want %q)", rep.Schema, SchemaV1)
	}
	return &rep, nil
}
