// Package hotpath defines the bgplint analyzer that keeps the
// per-event paths of the pipeline allocation-free. PR 4 made ingest
// zero-alloc and PR 5 made the cascade integer-keyed; the runtime
// bgpbench gate defends those wins but cannot say which line regressed
// or catch an allocation a fixed benchmark input never exercises. This
// analyzer defends them statically.
//
// Hotness starts at declared roots — the ingest/cascade/serve entry
// points named in rootList, plus every Benchmark* body — and a HotFact
// propagates through the callgraph: a function called from a hot loop
// (or called at all from a per-event function) is itself per-event.
// Inside hot code the analyzer flags the allocation-bearing constructs
// the escape analyzer would charge to the per-event path: fmt.* calls,
// string(b)/[]byte(s) conversions, interface boxing at call sites,
// per-call map/slice composite literals, append-in-loop without
// preallocated capacity, and escaping closure captures.
//
// Two hotness tiers keep the signal honest. A per-event root (a record
// unmarshaler, the incremental cascade's Feed) is hot throughout its
// body; a per-call root (filter.Pipeline, Engine.IngestRAS) is called
// once per batch, so only its loop bodies — and everything they call —
// are per-event. Constructs on amortized-cold paths (blocks that end
// by returning an error or panicking) are exempt: error formatting on
// a reject path is not a per-event cost.
//
// Cross-package enforcement is fact-based: every function exports an
// AllocFact summarizing its allocation-bearing constructs, and a call
// from a hot loop to a helper in another package that carries a
// non-empty AllocFact (and no HotFact of its own — already-governed
// helpers report at their own definition) is flagged at the call site,
// so a helper called from a hot loop in another package is held to the
// same standard.
//
// Calls into the sort and slices packages are exempt from the boxing
// and closure checks: deterministic ordering is a correctness
// invariant here (see detrand/maporder) and its cost is accepted.
// Likewise the functions in exemptList — the bounded interning
// helpers — are sanctioned allocation points: their allocations are
// amortized by a cache and are the mechanism that keeps everything
// else allocation-free.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/facts"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "flag allocation-bearing constructs on the per-event hot paths\n\n" +
		"Propagates a HotFact from the declared ingest/cascade/serve roots (and\n" +
		"Benchmark* bodies) through the callgraph and flags fmt.* calls,\n" +
		"string/[]byte conversions, interface boxing, per-call map/slice\n" +
		"literals, append without preallocation, and escaping closures inside\n" +
		"hot functions; AllocFact export holds helpers called from hot loops in\n" +
		"other packages to the same standard.",
	Run:       run,
	Requires:  []*analysis.Analyzer{callgraph.Analyzer},
	FactTypes: []analysis.Fact{(*HotFact)(nil), (*AllocFact)(nil)},
}

// A RootKind says how hot a function is.
type RootKind uint8

const (
	// NotHot means unreachable from any root.
	NotHot RootKind = iota
	// PerCall marks a function invoked roughly once per batch or
	// request: only its loop bodies are per-event.
	PerCall
	// PerEvent marks a function whose whole body runs once per record,
	// event, or query.
	PerEvent
)

func (k RootKind) String() string {
	switch k {
	case PerCall:
		return "per-call"
	case PerEvent:
		return "per-event"
	}
	return "not-hot"
}

// A HotFact marks a function reachable from a hot root, so dependent
// packages know a callee is already governed in its defining package.
type HotFact struct {
	Kind RootKind
}

// AFact marks HotFact as a fact type.
func (*HotFact) AFact() {}

func (f *HotFact) String() string { return "hot(" + f.Kind.String() + ")" }

// An AllocFact summarizes a function's allocation-bearing constructs
// for cross-package call-site checks, as short sorted descriptors.
type AllocFact struct {
	Constructs []string
}

// AFact marks AllocFact as a fact type.
func (*AllocFact) AFact() {}

func (f *AllocFact) String() string { return "allocs(" + strings.Join(f.Constructs, ", ") + ")" }

// A Root declares one hot entry point, keyed by package NAME (not
// path) plus object path, so the same table governs the real module
// and the linttest fixture mirrors.
type Root struct {
	Sym  string
	Kind RootKind
}

// rootList is the declared hot surface of the pipeline: the streaming
// codec, the symbol-table interners, the columnar store appenders, the
// filter cascade, the serving engine's ingest/query/publish entry
// points, and the per-scan analysis passes. Keep sorted by Sym.
var rootList = []Root{
	{"bgp.Partition.AppendTo", PerEvent},
	{"core.Analysis.Features", PerCall},
	{"core.Analyze", PerCall},
	{"core.AnalyzeStream", PerCall},
	{"filter.Incremental.Feed", PerEvent},
	{"filter.Pipeline", PerCall},
	{"filter.PipelineFromLog", PerCall},
	{"joblog.Job.AppendLine", PerEvent},
	{"joblog.Job.MarshaledLen", PerEvent},
	{"joblog.Job.UnmarshalFields", PerEvent},
	{"joblog.Reader.Next", PerEvent},
	{"raslog.Reader.Next", PerEvent},
	{"raslog.Record.AppendLine", PerEvent},
	{"raslog.Record.MarshaledLen", PerEvent},
	{"raslog.Record.UnmarshalFields", PerEvent},
	{"repro.LogStats.ObserveRAS", PerEvent},
	{"serve.Engine.IngestJobs", PerCall},
	{"serve.Engine.IngestRAS", PerCall},
	{"serve.Engine.Publish", PerCall},
	{"serve.Epoch.Query", PerEvent},
	{"serve.Server.query", PerEvent},
	{"store.Events.Append", PerEvent},
	{"store.Segment.AppendRow", PerEvent},
	{"store.SegmentSet.Append", PerEvent},
	{"symtab.Dict.Intern", PerEvent},
	{"symtab.Int64Dict.Intern", PerEvent},
}

// exemptList names the sanctioned allocation points: the bounded
// interning helpers whose allocations are amortized by their caches,
// and the segment-seal durability path, which runs once per sealed
// segment with fsync dominating any allocation it makes. Their bodies
// are not scanned and they export no AllocFact.
var exemptList = []Root{
	{"joblog.decoder.partition", PerEvent},
	{"joblog.decoder.str", PerEvent},
	{"joblog.intern.str", PerEvent},
	{"raslog.fieldScratch.str", PerEvent},
	{"raslog.intern.str", PerEvent},
	{"serve.persister.path", PerCall},
	{"serve.persister.writeSeal", PerCall},
	{"symtab.Dict.Intern", PerEvent},
	{"symtab.Int64Dict.Intern", PerEvent},
}

var (
	roots   = make(map[string]RootKind, len(rootList))
	exempts = make(map[string]bool, len(exemptList))
)

func init() {
	for _, r := range rootList {
		roots[r.Sym] = r.Kind
	}
	for _, r := range exemptList {
		exempts[r.Sym] = true
	}
}

// Roots returns the declared hot entry points, sorted by symbol.
// cmd/bgpescape shares the table for its zero-escape assertions.
func Roots() []Root {
	out := make([]Root, len(rootList))
	copy(out, rootList)
	return out
}

// keyOf renders fn as "pkgname.objpath", the form rootList uses, or ""
// when fn has no package or object path.
func keyOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, ok := facts.ObjectPath(fn)
	if !ok {
		return ""
	}
	return fn.Pkg().Name() + "." + path
}

// callCtx is the lexical context of one call site within its
// declaration: whether it sits in a loop body and whether it sits on
// an amortized-cold (return-error/panic) path.
type callCtx struct {
	inLoop bool
	cold   bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	graph := pass.ResultOf[callgraph.Analyzer].(*callgraph.Result)

	// Seed hotness from the root table and Benchmark* bodies, then
	// propagate through the local callgraph to a fixpoint: a callee of
	// a per-event function, or any callee invoked from a loop of a hot
	// function, is itself per-event; other callees of per-call
	// functions are per-call.
	hot := make(map[*types.Func]RootKind, len(graph.Order))
	ctx := make(map[*ast.CallExpr]callCtx)
	var work []*callgraph.Node
	for _, n := range graph.Order {
		lintutil.WalkStack(n.Decl.Body, func(stack []ast.Node, nd ast.Node) {
			if call, ok := nd.(*ast.CallExpr); ok {
				ctx[call] = callCtx{inLoop: inLoop(stack, call.Pos()), cold: coldContext(stack)}
			}
		})
		k := roots[keyOf(n.Fn)]
		if n.Decl.Recv == nil && strings.HasPrefix(n.Fn.Name(), "Benchmark") && k == NotHot {
			k = PerCall
		}
		if k != NotHot {
			hot[n.Fn] = k
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		k := hot[n.Fn]
		for _, c := range n.Calls {
			callee, ok := graph.Nodes[c.Callee]
			if !ok {
				continue
			}
			if ctx[c.Site].cold {
				continue // amortized-cold call sites conduct no heat
			}
			t := PerCall
			if k == PerEvent || ctx[c.Site].inLoop {
				t = PerEvent
			}
			if t > hot[c.Callee] {
				hot[c.Callee] = t
				work = append(work, callee)
			}
		}
	}

	for _, n := range graph.Order {
		kind := hot[n.Fn]
		if exempts[keyOf(n.Fn)] {
			if kind != NotHot {
				pass.ExportObjectFact(n.Fn, &HotFact{Kind: kind})
			}
			continue
		}
		allocs := scanConstructs(pass, n, kind)
		if kind != NotHot {
			pass.ExportObjectFact(n.Fn, &HotFact{Kind: kind})
			if !strings.HasPrefix(n.Fn.Name(), "Benchmark") {
				checkCallBoundaries(pass, n, kind, ctx)
			}
		}
		if len(allocs) > 0 {
			sort.Strings(allocs)
			pass.ExportObjectFact(n.Fn, &AllocFact{Constructs: allocs})
		}
	}
	return nil, nil
}

// scanConstructs walks one declaration, reports allocation-bearing
// constructs in hot context, and returns the deduplicated descriptor
// list for the function's AllocFact (hot or not — callers in other
// packages decide whether the summary matters).
func scanConstructs(pass *analysis.Pass, n *callgraph.Node, kind RootKind) []string {
	prealloc, declPos := sliceDecls(pass, n.Decl.Body)
	seen := make(map[string]bool)
	var allocs []string
	record := func(desc string) {
		if !seen[desc] {
			seen[desc] = true
			allocs = append(allocs, desc)
		}
	}
	hotWord := func(stack []ast.Node, pos token.Pos) string {
		if inLoop(stack, pos) {
			return "loop"
		}
		return "path"
	}
	lintutil.WalkStack(n.Decl.Body, func(stack []ast.Node, nd ast.Node) {
		cold := false // computed lazily; coldContext is the common gate
		hotHere := func(pos token.Pos) bool {
			if kind == NotHot {
				return false
			}
			if kind == PerCall && !inLoop(stack, pos) {
				return false
			}
			return !cold
		}
		switch x := nd.(type) {
		case *ast.CallExpr:
			if desc, msg := classifyConversion(pass, x); desc != "" {
				if noAllocConversion(stack, x, desc) {
					return
				}
				if cold = coldContext(stack); !cold {
					record(desc)
				}
				if hotHere(x.Pos()) {
					pass.Reportf(x.Pos(), "%s allocates on a hot %s; %s (hotpath)",
						msg, hotWord(stack, x.Pos()), conversionAdvice(desc))
				}
				return
			}
			if isBuiltinAppend(pass, x) {
				loop := innermostLoop(stack, x.Pos())
				if loop == nil || len(x.Args) < 2 || x.Ellipsis.IsValid() {
					return
				}
				id, ok := ast.Unparen(x.Args[0]).(*ast.Ident)
				if !ok {
					return
				}
				v, ok := pass.TypesInfo.Uses[id].(*types.Var)
				if !ok || prealloc[v] {
					return
				}
				pos, tracked := declPos[v]
				if !tracked || pos >= loop.Pos() {
					return
				}
				if cold = coldContext(stack); !cold {
					record("append without preallocation")
				}
				if hotHere(x.Pos()) {
					pass.Reportf(x.Pos(), "append to %s in a hot loop without preallocated capacity; size it with make(..., 0, n) before the loop (hotpath)", id.Name)
				}
				return
			}
			if callee := lintutil.Callee(pass.TypesInfo, x); callee != nil && callee.Pkg() != nil {
				switch callee.Pkg().Path() {
				case "fmt":
					if cold = coldContext(stack); !cold {
						record("fmt." + callee.Name() + " call")
					}
					if hotHere(x.Pos()) {
						pass.Reportf(x.Pos(), "call to fmt.%s allocates on a hot %s; use strconv/append-based formatting or move it off the per-event path (hotpath)",
							callee.Name(), hotWord(stack, x.Pos()))
					}
					return
				case "sort", "slices":
					// Deterministic-ordering calls are sanctioned; see
					// the package comment.
					return
				}
			}
			if arg := boxedArg(pass, x); arg != nil {
				if cold = coldContext(stack); !cold {
					record("interface boxing")
				}
				if hotHere(x.Pos()) {
					pass.Reportf(arg.Pos(), "%s is boxed into an interface argument on a hot %s; use a concrete parameter type or hoist the call (hotpath)",
						types.ExprString(arg), hotWord(stack, arg.Pos()))
				}
			}
		case *ast.CompositeLit:
			for _, anc := range stack {
				if _, ok := anc.(*ast.CompositeLit); ok {
					return // count only the outermost literal
				}
			}
			tv, ok := pass.TypesInfo.Types[x]
			if !ok || tv.Type == nil {
				return
			}
			var what string
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				what = "map"
			case *types.Slice:
				what = "slice"
			default:
				return
			}
			if cold = coldContext(stack); !cold {
				record(what + " literal")
			}
			if hotHere(x.Pos()) {
				pass.Reportf(x.Pos(), "%s literal allocates on a hot %s; hoist it off the per-event path or reuse a cleared %s (hotpath)",
					what, hotWord(stack, x.Pos()), what)
			}
		case *ast.FuncLit:
			name, escapes := escapingClosure(pass, stack, x, n.Decl)
			if !escapes {
				return
			}
			if cold = coldContext(stack); !cold {
				record("escaping closure")
			}
			if hotHere(x.Pos()) {
				pass.Reportf(x.Pos(), "closure capturing %s escapes on a hot %s; hoist the closure or pass state explicitly (hotpath)",
					name, hotWord(stack, x.Pos()))
			}
		}
	})
	return allocs
}

// checkCallBoundaries flags calls from hot context in this package to
// helpers in other packages that carry a non-empty AllocFact and no
// HotFact: the helper is held to the hot caller's standard even though
// its own package never sees the heat.
func checkCallBoundaries(pass *analysis.Pass, n *callgraph.Node, kind RootKind, ctx map[*ast.CallExpr]callCtx) {
	for _, c := range n.Calls {
		cc := ctx[c.Site]
		if cc.cold {
			continue
		}
		if kind != PerEvent && !cc.inLoop {
			continue
		}
		if c.Callee.Pkg() == nil || c.Callee.Pkg() == pass.Pkg {
			continue
		}
		key := keyOf(c.Callee)
		if _, governed := roots[key]; governed || exempts[key] {
			continue
		}
		if sig, ok := c.Callee.Type().(*types.Signature); ok {
			res := sig.Results()
			if res.Len() == 1 && types.Identical(res.At(0).Type(), errorType) {
				continue // pure error constructors run only on reject paths
			}
		}
		var hf HotFact
		if pass.ImportObjectFact(c.Callee, &hf) {
			continue // already governed in its defining package
		}
		var af AllocFact
		if !pass.ImportObjectFact(c.Callee, &af) || len(af.Constructs) == 0 {
			continue
		}
		word := "path"
		if cc.inLoop {
			word = "loop"
		}
		pass.Reportf(c.Site.Pos(), "hot %s calls %s, which allocates (%s); hoist the call or make the helper allocation-free (hotpath)",
			word, key, strings.Join(af.Constructs, ", "))
	}
}

var errorType = types.Universe.Lookup("error").Type()

// noAllocConversion reports whether a string([]byte) conversion sits in
// a context the compiler compiles without allocating: a switch tag, an
// == / != operand, or a map-probe key. A map STORE retains the key and
// still allocates, so m[string(b)] on an assignment left side (or under
// ++/--) stays flagged.
func noAllocConversion(stack []ast.Node, call *ast.CallExpr, desc string) bool {
	if desc != "string([]byte) conversion" {
		return false
	}
	i := len(stack) - 1
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); !ok {
			break
		}
		i--
	}
	if i < 0 {
		return false
	}
	switch p := stack[i].(type) {
	case *ast.SwitchStmt:
		return p.Tag != nil && ast.Unparen(p.Tag) == call
	case *ast.BinaryExpr:
		if p.Op != token.EQL && p.Op != token.NEQ {
			return false
		}
		return ast.Unparen(p.X) == call || ast.Unparen(p.Y) == call
	case *ast.IndexExpr:
		if ast.Unparen(p.Index) != call {
			return false
		}
		for j := i - 1; j >= 0; j-- {
			switch q := stack[j].(type) {
			case *ast.ParenExpr:
				continue
			case *ast.AssignStmt:
				for _, lhs := range q.Lhs {
					if ast.Unparen(lhs) == p {
						return false
					}
				}
			case *ast.IncDecStmt:
				return ast.Unparen(q.X) != p
			case *ast.UnaryExpr:
				return q.Op != token.AND
			}
			break
		}
		return true
	}
	return false
}

// classifyConversion recognizes the two per-event conversion allocs:
// string(b) of a byte slice and []byte(s) of a string.
func classifyConversion(pass *analysis.Pass, call *ast.CallExpr) (desc, msg string) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return "", ""
	}
	src, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || src.Type == nil {
		return "", ""
	}
	if src.Value != nil {
		return "", "" // constant-folded conversion: no runtime cost
	}
	switch {
	case isString(tv.Type) && isByteSlice(src.Type):
		return "string([]byte) conversion", "string(...) conversion of a byte slice"
	case isByteSlice(tv.Type) && isString(src.Type):
		return "[]byte(string) conversion", "[]byte(...) conversion of a string"
	}
	return "", ""
}

func conversionAdvice(desc string) string {
	if strings.HasPrefix(desc, "string") {
		return "intern the string or keep the bytes"
	}
	return "reuse a scratch buffer"
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// boxedArg returns the first call argument converted into an interface
// parameter with an allocating boxing (concrete, non-pointer-shaped,
// non-constant value), or nil.
func boxedArg(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // spread: the slice passes through unboxed
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil || at.IsNil() || at.Value != nil {
			continue // untyped nil and constants box without allocating
		}
		if _, isIface := at.Type.Underlying().(*types.Interface); isIface {
			continue
		}
		if pointerShaped(at.Type) {
			continue
		}
		return arg
	}
	return nil
}

// pointerShaped reports whether values of t fit an interface word
// without allocating.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// escapingClosure reports whether fl is a function literal that both
// captures variables of the enclosing declaration and flows somewhere
// that forces a heap closure: a non-sort call argument, a goroutine, a
// return value, a channel send, a composite literal, or a store into a
// field or element. It returns the first captured variable's name.
func escapingClosure(pass *analysis.Pass, stack []ast.Node, fl *ast.FuncLit, decl *ast.FuncDecl) (string, bool) {
	if len(stack) == 0 {
		return "", false
	}
	captured := ""
	ast.Inspect(fl.Body, func(nd ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() != pass.Pkg {
			return true
		}
		// Captured: declared inside the enclosing declaration but
		// outside the literal (receiver and parameters included).
		if v.Pos() >= decl.Pos() && v.Pos() < fl.Pos() {
			captured = v.Name()
		}
		return true
	})
	if captured == "" {
		return "", false // static closures are allocated once
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.CallExpr:
		if parent.Fun == fl {
			// Immediately invoked: only a goroutine launch escapes.
			if len(stack) >= 2 {
				_, isGo := stack[len(stack)-2].(*ast.GoStmt)
				return captured, isGo
			}
			return "", false
		}
		if len(stack) >= 2 {
			if _, isDefer := stack[len(stack)-2].(*ast.DeferStmt); isDefer {
				return "", false
			}
		}
		if callee := lintutil.Callee(pass.TypesInfo, parent); callee != nil && callee.Pkg() != nil {
			switch callee.Pkg().Path() {
			case "sort", "slices":
				return "", false // sanctioned ordering calls
			}
		}
		return captured, true
	case *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit, *ast.KeyValueExpr:
		return captured, true
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			switch ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr, *ast.IndexExpr:
				return captured, true
			}
		}
	}
	return "", false
}

// sliceDecls records, for every slice-typed local defined in body,
// where it was declared and whether the initializer preallocated
// capacity (make with a cap or nonzero len, or a non-empty literal).
// Initializers we cannot judge (call results, multi-value assigns)
// count as preallocated so the append check stays quiet on them.
func sliceDecls(pass *analysis.Pass, body *ast.BlockStmt) (prealloc map[*types.Var]bool, declPos map[*types.Var]token.Pos) {
	prealloc = make(map[*types.Var]bool)
	declPos = make(map[*types.Var]token.Pos)
	note := func(id *ast.Ident, sized bool) {
		v, ok := pass.TypesInfo.Defs[id].(*types.Var)
		if !ok {
			return
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		declPos[v] = id.Pos()
		prealloc[v] = sized
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if len(x.Rhs) == len(x.Lhs) {
					note(id, initializerSized(pass, x.Rhs[i]))
				} else {
					note(id, true) // multi-value: cannot judge
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i < len(x.Values) {
					note(name, initializerSized(pass, x.Values[i]))
				} else {
					note(name, false) // var s []T: nil, zero capacity
				}
			}
		}
		return true
	})
	return prealloc, declPos
}

// initializerSized reports whether a slice initializer carries
// capacity: make with an explicit cap or a nonzero len, or a literal
// with elements. Unknown initializers count as sized.
func initializerSized(pass *analysis.Pass, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		id, ok := ast.Unparen(x.Fun).(*ast.Ident)
		if !ok || id.Name != "make" {
			return true
		}
		if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
			return true
		}
		if len(x.Args) >= 3 {
			return true
		}
		if len(x.Args) == 2 {
			tv, ok := pass.TypesInfo.Types[x.Args[1]]
			return !ok || tv.Value == nil || tv.Value.String() != "0"
		}
		return true
	case *ast.CompositeLit:
		return len(x.Elts) > 0
	}
	return true
}

// innermostLoop returns the nearest enclosing for/range statement whose
// per-iteration region contains pos, or nil.
func innermostLoop(stack []ast.Node, pos token.Pos) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch x := stack[i].(type) {
		case *ast.ForStmt:
			if covers(x.Body, pos) || covers(x.Cond, pos) || covers(x.Post, pos) {
				return x
			}
		case *ast.RangeStmt:
			if covers(x.Body, pos) {
				return x
			}
		}
	}
	return nil
}

// inLoop reports whether pos sits in the per-iteration region of any
// enclosing loop (a range expression or a for-init runs once and does
// not count).
func inLoop(stack []ast.Node, pos token.Pos) bool {
	return innermostLoop(stack, pos) != nil
}

func covers(n ast.Node, pos token.Pos) bool {
	return n != nil && n.Pos() <= pos && pos < n.End()
}

// coldContext reports whether the innermost statement context is
// amortized-cold: inside an if-block or switch-case that terminates by
// returning, panicking, or branching out. Error formatting on a reject
// path is not a per-event cost.
func coldContext(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch x := stack[i].(type) {
		case *ast.BlockStmt:
			if i > 0 {
				if _, isIf := stack[i-1].(*ast.IfStmt); isIf && terminates(x.List) {
					return true
				}
			}
		case *ast.CaseClause:
			if terminates(x.Body) {
				return true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false // heat restarts inside loops and literals
		}
	}
	return false
}

// terminates reports whether a statement list ends by leaving the
// surrounding flow: return, panic, or an explicit branch. A trailing
// if whose body terminates also counts — `if err != nil { return err }`
// at the end of a guarded block marks the whole block as a validating
// slow path (e.g. a parse fallback that delegates near-misses).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.IfStmt:
		return terminates(last.Body.List)
	case *ast.BlockStmt:
		return terminates(last.List)
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}
