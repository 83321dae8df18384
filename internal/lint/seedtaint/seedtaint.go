// Package seedtaint defines the bgplint analyzer that polices seed
// provenance interprocedurally: every random source in the pipeline
// must be fed a value traceable to a Config.Seed-style origin — a
// seed-named identifier or field, a -seed flag registration, or a
// SubSeed/deriveSeed-style split — through any number of calls.
//
// It replaces the older seedflow analyzer, which only inspected the
// literal argument expression of rand.NewSource. seedtaint understands
// that a function which merely forwards its parameter into a seed sink
// is not itself at fault: the obligation to supply provenance moves to
// its callers. Concretely, if F(x) passes x to rand.NewSource, F's
// first parameter becomes a seed sink (exported as a SinkFact so the
// obligation crosses package boundaries), and a call F(42) in shipped
// code is flagged where the unseeded value actually enters the chain.
//
// Accepted provenance, checked syntactically on the value's def-use
// chain: any identifier whose name contains "seed" (seed, Seed,
// cfg.Seed, baseSeed, SubSeed(...), deriveSeed(...)), or a flag
// registration whose flag name mentions "seed". Literal seeds are
// allowed only in _test.go files, where pinned constants are the
// point. A value that reaches a sink with neither provenance nor a
// parameter to blame is reported at that call site.
package seedtaint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "seedtaint",
	Doc: "flag random-source seeds that are not derived from a Config.Seed-style value, across calls\n\n" +
		"rand.NewSource (and the math/rand/v2 constructors) must be fed a value\n" +
		"traceable to a configuration seed. Functions that forward a parameter\n" +
		"into a seed sink become sinks themselves (a SinkFact visible across\n" +
		"packages); the diagnostic lands where an unseeded value first enters\n" +
		"the chain. Literal seeds are allowed only in _test.go files.",
	Run:       run,
	Requires:  []*analysis.Analyzer{callgraph.Analyzer},
	FactTypes: []analysis.Fact{(*SinkFact)(nil)},
}

// A SinkFact marks a function whose listed parameters (0-based) flow
// into a random-source seed without independent provenance: callers
// must supply seed-derived values there.
type SinkFact struct {
	Params []int
}

// AFact marks SinkFact as a fact type.
func (*SinkFact) AFact() {}

func (f *SinkFact) String() string {
	return fmt.Sprintf("seedsink%v", f.Params)
}

// builtinSinks are the ground-truth sinks: constructor parameters that
// ARE the seed. math/rand.NewSource(seed) and the math/rand/v2
// generators.
var builtinSinks = map[string]map[string][]int{
	"math/rand":    {"NewSource": {0}},
	"math/rand/v2": {"NewPCG": {0, 1}, "NewChaCha8": {0}},
}

type checker struct {
	pass   *analysis.Pass
	graph  *callgraph.Result
	sinks  map[*types.Func][]int // package-local sink params, grown to fixpoint
	params map[*types.Func]map[*types.Var]int
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{
		pass:   pass,
		graph:  pass.ResultOf[callgraph.Analyzer].(*callgraph.Result),
		sinks:  make(map[*types.Func][]int),
		params: make(map[*types.Func]map[*types.Var]int),
	}

	// Fixpoint: a function whose parameter reaches a sink becomes a
	// sink, which may in turn promote its callers. Monotone over the
	// finite set of (function, param) pairs, so this terminates.
	worklist := append([]*callgraph.Node(nil), c.graph.Order...)
	for len(worklist) > 0 {
		node := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		if c.propagate(node) {
			worklist = append(worklist, c.graph.CallersOf[node.Fn]...)
		}
	}
	for fn, idxs := range c.sinks {
		sort.Ints(idxs)
		pass.ExportObjectFact(fn, &SinkFact{Params: idxs})
	}

	// Reporting pass, over files in source order so output is
	// deterministic: flag sites where a ground (parameterless,
	// provenance-free) value enters the sink chain.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := c.graph.Nodes[fn]
			if node == nil {
				continue
			}
			c.report(node)
		}
	}
	return nil, nil
}

// sinkParams returns the seed-sink parameter indices of fn: builtin
// constructors, package-local fixpoint state, or an imported fact.
func (c *checker) sinkParams(fn *types.Func) []int {
	if fn.Pkg() != nil {
		if ctors, ok := builtinSinks[fn.Pkg().Path()]; ok {
			return ctors[fn.Name()]
		}
	}
	if fn.Pkg() == c.pass.Pkg {
		return c.sinks[fn]
	}
	var fact SinkFact
	if c.pass.ImportObjectFact(fn, &fact) {
		return fact.Params
	}
	return nil
}

// classifyCall classifies the sink-relevant arguments of one call as
// a unit: provenance on ANY sink argument satisfies the whole call
// (NewPCG(cfg.Seed, 0) is fine — the stream selector need not be
// seed-derived), otherwise params is the union of parameter indices
// the sink arguments depend on.
func (c *checker) classifyCall(node *callgraph.Node, call callgraph.Call, idxs []int) (ok bool, params map[int]bool) {
	params = make(map[int]bool)
	for _, idx := range idxs {
		if idx >= len(call.Site.Args) {
			continue
		}
		res := c.classify(node, call.Site.Args[idx], nil)
		if res.ok {
			return true, nil
		}
		for p := range res.params {
			params[p] = true
		}
	}
	return false, params
}

// propagate promotes node.Fn's parameters that flow into a sink call
// without provenance; it reports whether the sink set grew.
func (c *checker) propagate(node *callgraph.Node) bool {
	changed := false
	for _, call := range node.Calls {
		idxs := c.sinkParams(call.Callee)
		if len(idxs) == 0 {
			continue
		}
		ok, params := c.classifyCall(node, call, idxs)
		if ok {
			continue
		}
		for p := range params {
			if c.addSink(node.Fn, p) {
				changed = true
			}
		}
	}
	return changed
}

func (c *checker) addSink(fn *types.Func, idx int) bool {
	for _, have := range c.sinks[fn] {
		if have == idx {
			return false
		}
	}
	c.sinks[fn] = append(c.sinks[fn], idx)
	return true
}

// report flags the ground violations in node: sink calls with no seed
// provenance on any sink argument and no parameter to pass the
// obligation to.
func (c *checker) report(node *callgraph.Node) {
	reported := make(map[*ast.CallExpr]bool)
	for _, call := range node.Calls {
		idxs := c.sinkParams(call.Callee)
		if len(idxs) == 0 || reported[call.Site] {
			continue
		}
		ok, params := c.classifyCall(node, call, idxs)
		if ok || len(params) > 0 {
			continue
		}
		sinkArgs := make([]ast.Expr, 0, len(idxs))
		for _, idx := range idxs {
			if idx < len(call.Site.Args) {
				sinkArgs = append(sinkArgs, call.Site.Args[idx])
			}
		}
		if allLiterals(sinkArgs) && lintutil.IsTestFile(c.pass.Fset, call.Site.Pos()) {
			continue // pinned test seeds are the point of seeding
		}
		callee := call.Callee
		if isBuiltinSink(callee) {
			c.pass.Reportf(call.Site.Pos(),
				"%s.%s argument is not derived from a Config.Seed-style value; thread the campaign seed (or a SubSeed-style derivation of it) so one seed reproduces the whole run (seedtaint)",
				callee.Pkg().Name(), callee.Name())
		} else {
			c.pass.Reportf(call.Site.Pos(),
				"argument #%d to %s.%s flows to a random-source seed without seed provenance; pass a value derived from the campaign seed (seedtaint)",
				idxs[0]+1, callee.Pkg().Name(), callee.Name())
		}
		reported[call.Site] = true
	}
}

// taint is the classification of one value expression.
type taint struct {
	// ok means seed provenance was found somewhere in the value's
	// def-use chain.
	ok bool
	// params holds the enclosing function's parameter indices the
	// value depends on; when ok is false and params is empty the value
	// is ground — nobody upstream can fix it.
	params map[int]bool
}

// classify determines where the value of e comes from, chasing local
// variable assignments inside node's body. visiting guards against
// assignment cycles (x = x + 1).
func (c *checker) classify(node *callgraph.Node, e ast.Expr, visiting map[types.Object]bool) taint {
	res := taint{params: make(map[int]bool)}
	if seedDerived(e) {
		res.ok = true
		return res
	}
	info := c.pass.TypesInfo
	ast.Inspect(e, func(n ast.Node) bool {
		if res.ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isSeedFlagCall(info, n) {
				res.ok = true
				return false
			}
		case *ast.Ident:
			v, ok := info.Uses[n].(*types.Var)
			if !ok || v.IsField() {
				return true
			}
			if idx, isParam := c.paramIndex(node.Fn, v); isParam {
				res.params[idx] = true
				return true
			}
			sub := c.classifyVar(node, v, visiting)
			if sub.ok {
				res.ok = true
				return false
			}
			for p := range sub.params {
				res.params[p] = true
			}
		}
		return true
	})
	return res
}

// classifyVar chases the assignments to local variable v inside node's
// body and merges the classification of every right-hand side.
func (c *checker) classifyVar(node *callgraph.Node, v *types.Var, visiting map[types.Object]bool) taint {
	res := taint{params: make(map[int]bool)}
	if v.Pkg() != c.pass.Pkg || node.Decl.Body == nil {
		return res
	}
	if visiting == nil {
		visiting = make(map[types.Object]bool)
	}
	if visiting[v] {
		return res
	}
	visiting[v] = true
	defer delete(visiting, v)

	info := c.pass.TypesInfo
	owns := func(id *ast.Ident) bool {
		return info.Defs[id] == v || info.Uses[id] == v
	}
	merge := func(rhs ast.Expr) {
		sub := c.classify(node, rhs, visiting)
		if sub.ok {
			res.ok = true
		}
		for p := range sub.params {
			res.params[p] = true
		}
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !owns(id) {
					continue
				}
				if len(st.Rhs) == len(st.Lhs) {
					merge(st.Rhs[i])
				} else if len(st.Rhs) == 1 {
					merge(st.Rhs[0]) // x, y := f(...): blame the call
				}
			}
		case *ast.ValueSpec:
			for i, id := range st.Names {
				if !owns(id) {
					continue
				}
				if i < len(st.Values) {
					merge(st.Values[i])
				} else if len(st.Values) == 1 {
					merge(st.Values[0])
				}
			}
		}
		return true
	})
	return res
}

// paramIndex resolves v as a declared parameter of fn.
func (c *checker) paramIndex(fn *types.Func, v *types.Var) (int, bool) {
	m, ok := c.params[fn]
	if !ok {
		m = make(map[*types.Var]int)
		if sig, sok := fn.Type().(*types.Signature); sok {
			for i := 0; i < sig.Params().Len(); i++ {
				m[sig.Params().At(i)] = i
			}
		}
		c.params[fn] = m
	}
	idx, ok := m[v]
	return idx, ok
}

func isBuiltinSink(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	ctors, ok := builtinSinks[fn.Pkg().Path()]
	return ok && len(ctors[fn.Name()]) > 0
}

// isSeedFlagCall recognizes flag registrations that define the
// campaign seed: flag.Int64("seed", ...), fs.Uint64("base-seed", ...).
// The flag NAME carries the provenance even when no identifier does.
func isSeedFlagCall(info *types.Info, call *ast.CallExpr) bool {
	fn := lintutil.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
		return false
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.BasicLit); ok &&
			strings.Contains(strings.ToLower(lit.Value), "seed") {
			return true
		}
	}
	return false
}

// seedDerived reports whether the expression mentions a seed-named
// identifier, field, or function: seed, Seed, cfg.Seed, baseSeed,
// SubSeed(x), SeedForShard(i)... The check is syntactic taint — it
// asks "did a seed flow in here", not "is the arithmetic sound".
func seedDerived(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if strings.Contains(strings.ToLower(id.Name), "seed") {
				found = true
			}
		}
		return !found
	})
	return found
}

// allLiterals reports whether every expression is built purely from
// literals (42, uint64(7), [32]byte{...}), with no variables.
func allLiterals(args []ast.Expr) bool {
	for _, a := range args {
		literal := true
		ast.Inspect(a, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !typeNames[n.Name] {
					literal = false
				}
			case *ast.BasicLit, nil:
			case *ast.CallExpr, *ast.CompositeLit, *ast.UnaryExpr, *ast.BinaryExpr, *ast.ParenExpr, *ast.ArrayType:
			default:
				_ = n
			}
			return literal
		})
		if !literal {
			return false
		}
	}
	return true
}

var typeNames = map[string]bool{
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
	"byte": true, "rune": true, "uintptr": true,
}
