// Vet-tool protocol support: `go vet -vettool=bgplint` invokes the
// tool once per package with a JSON config file describing sources,
// dependency export data, and dependency fact files, after probing it
// with -V=full (cache key) and -flags (supported flags). This file
// implements that protocol the way x/tools' go/analysis/unitchecker
// does, including cross-package facts: dependency facts are read from
// the .vetx files named by PackageVetx, and the unit's own facts
// (merged with its dependencies', so transitive consumers need only
// direct entries) are gob-encoded to VetxOutput.
package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/facts"
)

// vetConfig mirrors the fields of unitchecker.Config the go command
// writes; unknown fields are ignored.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// PrintVersion implements -V=full: a self-describing line the go
// command uses as the vet result cache key, so editing bgplint
// invalidates cached vet results.
func PrintVersion(w io.Writer) error {
	progname := filepath.Base(os.Args[0])
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s version devel buildID=%02x\n", progname, h.Sum(nil))
	return err
}

// PrintFlags implements -flags: the JSON list of tool flags the go
// command may forward. bgplint keeps none beyond the protocol ones.
func PrintFlags(w io.Writer) error {
	_, err := fmt.Fprintln(w, "[]")
	return err
}

// RunVetUnit executes one vet unit of work: parse the cfg file, read
// dependency facts from their .vetx files, type-check the package
// against the export data the go command already built, run the
// analyzers (fact passes always; reporting passes unless VetxOnly),
// write the merged fact set to VetxOutput, and report diagnostics.
//
// Exit codes follow the bgplint contract (not unitchecker's):
// 0 clean, 1 findings, 2 tool or load failure. Every finding fails
// the unit, whatever its analyzer's tier.
func RunVetUnit(cfgFile string, analyzers []*analysis.Analyzer, stderr io.Writer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return ExitFailure
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "bgplint: parsing %s: %v\n", cfgFile, err)
		return ExitFailure
	}

	facts.Register(analyzers)
	store := facts.NewStore()
	deps := make([]string, 0, len(cfg.PackageVetx))
	for dep := range cfg.PackageVetx {
		deps = append(deps, dep)
	}
	sort.Strings(deps) // deterministic read order (and error reporting)
	for _, dep := range deps {
		vetx := cfg.PackageVetx[dep]
		data, err := os.ReadFile(vetx)
		if err != nil {
			continue // missing dependency facts degrade to local analysis
		}
		if err := store.Decode(data); err != nil {
			fmt.Fprintf(stderr, "bgplint: %s: %v\n", vetx, err)
			return ExitFailure
		}
	}

	// succeed writes the (possibly empty) fact file the go command
	// expects before a clean early return.
	writeVetx := func() int {
		if cfg.VetxOutput == "" {
			return ExitClean
		}
		data, err := store.Encode()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return ExitFailure
		}
		if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
			fmt.Fprintln(stderr, err)
			return ExitFailure
		}
		return ExitClean
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx()
			}
			fmt.Fprintln(stderr, err)
			return ExitFailure
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx()
		}
		fmt.Fprintf(stderr, "bgplint: %s: %v\n", cfg.ImportPath, err)
		return ExitFailure
	}

	order := analysis.Expand(analyzers)
	requested := make(map[*analysis.Analyzer]bool, len(analyzers))
	for _, a := range analyzers {
		requested[a] = true
	}
	// In VetxOnly mode the go command only wants this package's facts
	// for later units; run only the fact-producing analyzers plus
	// whatever they require for their ResultOf.
	factNeeded := make(map[*analysis.Analyzer]bool)
	for _, a := range order {
		if producesFacts(a) {
			for _, dep := range analysis.Expand([]*analysis.Analyzer{a}) {
				factNeeded[dep] = true
			}
		}
	}
	var findings []Finding
	results := make(map[*analysis.Analyzer]interface{}, len(order))
	for _, a := range order {
		a := a
		if cfg.VetxOnly && !factNeeded[a] {
			continue
		}
		report := func(analysis.Diagnostic) {}
		if !cfg.VetxOnly && requested[a] {
			report = func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
		}
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       tpkg,
			TypesInfo: info,
			Report:    report,
			ResultOf:  results,
		}
		store.BindPass(pass)
		res, err := a.Run(pass)
		if err != nil {
			fmt.Fprintf(stderr, "bgplint: %s on %s: %v\n", a.Name, cfg.ImportPath, err)
			return ExitFailure
		}
		results[a] = res
	}

	exit := writeVetx()
	if exit != ExitClean {
		return exit
	}
	sorted := sortAndDedupe(findings)
	for _, f := range sorted {
		fmt.Fprintf(stderr, "%s: %s\n", f.Pos, f.Message)
	}
	if len(sorted) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// producesFacts reports whether a (or anything it requires) declares
// fact types.
func producesFacts(a *analysis.Analyzer) bool {
	for _, dep := range analysis.Expand([]*analysis.Analyzer{a}) {
		if len(dep.FactTypes) > 0 {
			return true
		}
	}
	return false
}
