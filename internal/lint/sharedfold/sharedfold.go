// Package sharedfold defines the bgplint analyzer that guards the
// parallel pool's determinism contract at its call sites.
//
// internal/parallel promises byte-identical results at any worker
// count because every task writes only its own output slots and the
// pool merges them in index order. ForEach/Map run ONE closure once
// per index, concurrently. Any write to captured state is shared
// between iterations: it races and makes output scheduling-dependent.
// Only writes through index-keyed slice/array slots (results[i] = ...)
// and the closure's return value are safe.
//
// The race detector only catches this bug class when two writes
// actually collide during a test run; sharedfold rejects it
// statically.
package sharedfold

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "sharedfold",
	Doc: "flag parallel.ForEach/Map task closures that write shared captured state\n\n" +
		"ForEach/Map tasks run the same closure concurrently per index: they must\n" +
		"write only index-keyed slots or return values.",
	Run:       run,
	FactTypes: []analysis.Fact{(*SummaryFact)(nil)},
}

// A SummaryFact records that a package contains shared-state writes in
// parallel task closures; it rides the vet fact files so tooling can
// aggregate per-package verdicts without re-running the analysis.
type SummaryFact struct {
	Findings int
}

// AFact marks SummaryFact as a fact type.
func (*SummaryFact) AFact() {}

// poolFuncs are the fan-out entry points whose task closures run
// concurrently. Matching is by function name within a package named
// "parallel", so the analyzer also fires on its test fixtures.
var poolFuncs = map[string]bool{"ForEach": true, "Map": true}

func run(pass *analysis.Pass) (interface{}, error) {
	count := 0
	report := pass.Report
	pass.Report = func(d analysis.Diagnostic) { count++; report(d) }
	defer func() {
		if count > 0 {
			pass.ExportPackageFact(&SummaryFact{Findings: count})
		}
	}()
	pass.Preorder(func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := lintutil.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "parallel" || !poolFuncs[fn.Name()] {
			return
		}
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				checkPerIndexTask(pass, fn.Name(), lit)
			}
		}
	})
	return nil, nil
}

// A write records one mutation of captured state inside a task
// closure.
type write struct {
	pos  token.Pos
	path []string // field path from the root storage, e.g. [ir System]
	kind writeKind
	verb string // for diagnostics: "assignment to", "increment of", ...
}

type writeKind int

const (
	writePlain      writeKind = iota // x = ..., x.f = ..., *p = ...
	writeSliceIndex                  // xs[i] = ...: the per-index slot idiom
	writeMapIndex                    // m[k] = ...: a concurrent map write when shared
)

// checkPerIndexTask enforces the ForEach/Map contract: the one
// closure runs for every index, so every captured write except a
// slice/array index slot is shared state.
func checkPerIndexTask(pass *analysis.Pass, pool string, task *ast.FuncLit) {
	for _, w := range collectWrites(pass, task) {
		switch w.kind {
		case writeSliceIndex:
			// results[i] = v: each index owns its slot.
		case writeMapIndex:
			pass.Reportf(w.pos,
				"write to captured map %s inside a parallel.%s task is a concurrent map write; collect per-index results in slice slots and merge after the fan-out (sharedfold)",
				pathString(w), pool)
		default:
			pass.Reportf(w.pos,
				"%s captured variable %s inside a parallel.%s task races across workers and makes output scheduling-dependent; write an index-keyed slot instead (sharedfold)",
				w.verb, pathString(w), pool)
		}
	}
}

// collectWrites gathers every mutation of captured state in the task
// body, including inside nested closures (whatever they write outlives
// the task just the same).
func collectWrites(pass *analysis.Pass, task *ast.FuncLit) []write {
	var out []write
	record := func(lhs ast.Expr, verb string) {
		if w, ok := classifyWrite(pass.TypesInfo, task, lhs, verb); ok {
			out = append(out, w)
		}
	}
	ast.Inspect(task.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs, "assignment to")
			}
		case *ast.IncDecStmt:
			verb := "increment of"
			if n.Tok == token.DEC {
				verb = "decrement of"
			}
			record(n.X, verb)
		}
		return true
	})
	return out
}

// classifyWrite resolves one lvalue to (root object, field path, kind)
// and reports whether it mutates captured state.
func classifyWrite(info *types.Info, task *ast.FuncLit, lhs ast.Expr, verb string) (write, bool) {
	lhs = ast.Unparen(lhs)
	w := write{pos: lhs.Pos(), verb: verb, kind: writePlain}

	if ix, ok := lhs.(*ast.IndexExpr); ok {
		w.kind = writeSliceIndex
		if tv, ok := info.Types[ix.X]; ok && tv.Type != nil {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				w.kind = writeMapIndex
			}
		}
		lhs = ix.X
	}
	obj, path := resolvePath(info, lhs)
	if obj == nil || !capturedBy(task, obj) {
		return write{}, false
	}
	w.path = path
	return w, true
}

// resolvePath walks x.f.g[i].h style lvalues to the root object and
// the selector path from it. Index and deref steps keep the path of
// their operand (writing xs[i] writes "into" xs; writing *p writes
// through p).
func resolvePath(info *types.Info, e ast.Expr) (types.Object, []string) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return nil, nil
		}
		return obj, []string{x.Name}
	case *ast.SelectorExpr:
		obj, path := resolvePath(info, x.X)
		if obj == nil {
			return nil, nil
		}
		return obj, append(path, x.Sel.Name)
	case *ast.IndexExpr:
		return resolvePath(info, x.X)
	case *ast.StarExpr:
		return resolvePath(info, x.X)
	default:
		return nil, nil
	}
}

func pathString(w write) string { return strings.Join(w.path, ".") }

// capturedBy reports whether obj is declared outside the task closure
// (and is a variable — writes to captured funcs/types are impossible).
func capturedBy(task *ast.FuncLit, obj types.Object) bool {
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	return obj.Pos() < task.Pos() || obj.Pos() >= task.End()
}
