// Package frozen defines the bgplint analyzer for freeze-point
// immutability: a value obtained from a freezing function — Freeze,
// Seal, SealEmpty, Sealed, Snapshot, by the serving stack's naming
// convention — is immutable from that moment on, because published
// epochs and concurrent readers share it by pointer.
//
// Three rules:
//
//   - Post-freeze mutation: a local assigned from a freezer call (or
//     ranged out of one) must not be written through again — no field
//     or element assignment, IncDec, delete, and no call of a method
//     known to mutate its receiver. Receiver mutation knowledge is an
//     intra-package fixpoint exported as a MutatesFact, so calling
//     store.SegmentFile.Close on a segment store.SegmentSet.Seal
//     returned is flagged from any package.
//   - Alias escape from a freezer body: a freezer must not hand out
//     its receiver's own slice or map fields — returning r.F, placing
//     it in a composite literal, or storing it into another value's
//     field aliases mutable internals into the frozen result. Copies
//     (append/copy/maps.Clone results), full slice expressions
//     (s[:n:n]) and indexed elements are fine; the rule fires only on
//     the bare selector.
//   - Constructor alias leak: a constructor of a freezable type (one
//     with a freezer method) must not store a caller-owned slice or
//     map parameter directly into the value it builds — the caller
//     could mutate it after the freeze.
//
// Whether a callee is a freezer crosses package boundaries by fact
// (ImmutableAfterFact), never by name, so stdlib Snapshot-alikes don't
// trip the rule.
package frozen

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "frozen",
	Doc: "flag mutation of frozen values and aliases of mutable internals escaping a freeze point\n\n" +
		"Values returned by Freeze/Seal/SealEmpty/Sealed/Snapshot are shared with\n" +
		"concurrent readers and must never be written again; freezer bodies and\n" +
		"constructors of freezable types must copy or clip slice/map state instead\n" +
		"of aliasing it. Freezer identity crosses packages via ImmutableAfterFact,\n" +
		"receiver-mutation knowledge via MutatesFact.",
	Run:       run,
	Requires:  []*analysis.Analyzer{callgraph.Analyzer},
	FactTypes: []analysis.Fact{(*ImmutableAfterFact)(nil), (*MutatesFact)(nil)},
}

// An ImmutableAfterFact marks a function whose results are frozen:
// callers must treat them as immutable.
type ImmutableAfterFact struct{}

// AFact marks ImmutableAfterFact as a fact type.
func (*ImmutableAfterFact) AFact() {}

func (*ImmutableAfterFact) String() string { return "immutableAfter" }

// A MutatesFact marks a method that writes its receiver (directly or
// by calling other mutating methods on it), with the fields touched.
type MutatesFact struct {
	Fields []string
}

// AFact marks MutatesFact as a fact type.
func (*MutatesFact) AFact() {}

func (f *MutatesFact) String() string { return fmt.Sprintf("mutates%v", f.Fields) }

// freezerNames is the serving stack's freeze-point naming convention.
var freezerNames = map[string]bool{
	"Freeze": true, "Seal": true, "SealEmpty": true, "Sealed": true, "Snapshot": true,
}

type checker struct {
	pass     *analysis.Pass
	graph    *callgraph.Result
	freezers map[*types.Func]bool
	mutators map[*types.Func]map[string]bool // method → receiver fields written
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{
		pass:     pass,
		graph:    pass.ResultOf[callgraph.Analyzer].(*callgraph.Result),
		freezers: make(map[*types.Func]bool),
		mutators: make(map[*types.Func]map[string]bool),
	}
	c.collectFreezers()
	c.collectMutators()
	c.exportFacts()
	for _, node := range c.graph.Order {
		if lintutil.IsTestFile(pass.Fset, node.Decl.Pos()) {
			continue
		}
		if c.freezers[node.Fn] {
			c.checkFreezerBody(node)
		}
		c.checkPostFreeze(node)
		c.checkConstructor(node)
	}
	return nil, nil
}

// collectFreezers marks this package's freezing functions: a freezer
// name plus at least one shareable result (pointer, slice, or map).
func (c *checker) collectFreezers() {
	for _, node := range c.graph.Order {
		if lintutil.IsTestFile(c.pass.Fset, node.Decl.Pos()) {
			continue
		}
		if !freezerNames[node.Fn.Name()] {
			continue
		}
		sig, ok := node.Fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if shareable(sig.Results().At(i).Type()) {
				c.freezers[node.Fn] = true
				break
			}
		}
	}
}

// shareable reports result types whose mutation after publication
// corrupts readers: pointers to structs, slices, and maps. Value
// results (struct copies, scalars) are the caller's own.
func shareable(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Struct)
		return ok
	case *types.Slice, *types.Map:
		_ = u
		return true
	}
	return false
}

// isFreezer resolves freezer-ness for any callee: local set for this
// package, ImmutableAfterFact across packages.
func (c *checker) isFreezer(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if fn.Pkg() == c.pass.Pkg {
		return c.freezers[fn]
	}
	var fact ImmutableAfterFact
	return c.pass.ImportObjectFact(fn, &fact)
}

// mutatedFields resolves the receiver fields a method writes: local
// fixpoint for this package, MutatesFact across packages.
func (c *checker) mutatedFields(fn *types.Func) map[string]bool {
	if fn == nil {
		return nil
	}
	if fn.Pkg() == c.pass.Pkg {
		return c.mutators[fn]
	}
	var fact MutatesFact
	if !c.pass.ImportObjectFact(fn, &fact) {
		return nil
	}
	m := make(map[string]bool, len(fact.Fields))
	for _, f := range fact.Fields {
		m[f] = true
	}
	return m
}

// collectMutators runs the intra-package fixpoint over methods: a
// method mutates its receiver when it writes a receiver-rooted chain,
// deletes from a receiver map, or calls another mutating method on the
// receiver (directly or through receiver fields).
func (c *checker) collectMutators() {
	recvOf := func(decl *ast.FuncDecl) types.Object {
		if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
			return nil
		}
		return c.pass.TypesInfo.Defs[decl.Recv.List[0].Names[0]]
	}
	for changed := true; changed; {
		changed = false
		for _, node := range c.graph.Order {
			if lintutil.IsTestFile(c.pass.Fset, node.Decl.Pos()) {
				continue
			}
			recv := recvOf(node.Decl)
			if recv == nil {
				continue
			}
			fields := c.mutators[node.Fn]
			grow := func(name string) {
				if fields == nil {
					fields = make(map[string]bool)
					c.mutators[node.Fn] = fields
				}
				if !fields[name] {
					fields[name] = true
					changed = true
				}
			}
			lintutil.WalkStack(node.Decl, func(stack []ast.Node, n ast.Node) {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if name, ok := recvField(c.pass.TypesInfo, recv, lhs); ok {
							grow(name)
						}
					}
				case *ast.IncDecStmt:
					if name, ok := recvField(c.pass.TypesInfo, recv, n.X); ok {
						grow(name)
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
						if b, isB := c.pass.TypesInfo.Uses[id].(*types.Builtin); isB && b.Name() == "delete" && len(n.Args) > 0 {
							if name, ok := recvField(c.pass.TypesInfo, recv, n.Args[0]); ok {
								grow(name)
							}
						}
						return
					}
					// recv.m(...) or recv.F.m(...) where m mutates.
					sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
					if !ok {
						return
					}
					root := lintutil.RootIdent(sel.X)
					if root == nil || c.pass.TypesInfo.Uses[root] != recv {
						return
					}
					callee := lintutil.Callee(c.pass.TypesInfo, n)
					if callee == nil {
						return
					}
					if sub := c.mutatedFields(callee); len(sub) > 0 {
						if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
							// Mutation lands in the receiver field the chain
							// goes through.
							if base, ok := baseField(c.pass.TypesInfo, recv, inner); ok {
								grow(base)
								return
							}
						}
						for f := range sub {
							grow(f)
						}
					}
				}
			})
		}
	}
}

// recvField reports whether e is a write target rooted at recv
// (recv.F, recv.F[i], recv.F.G...), returning the first field name.
func recvField(info *types.Info, recv types.Object, e ast.Expr) (string, bool) {
	root := lintutil.RootIdent(e)
	if root == nil || info.Uses[root] != recv {
		return "", false
	}
	if sel, ok := e.(*ast.SelectorExpr); ok || true {
		_ = sel
	}
	return baseFieldOfChain(info, recv, e)
}

// baseFieldOfChain digs to the first selector hop off recv in e.
func baseFieldOfChain(info *types.Info, recv types.Object, e ast.Expr) (string, bool) {
	var first *ast.SelectorExpr
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			first = x
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			if info.Uses[x] != recv || first == nil {
				return "", false
			}
			if v, ok := info.Uses[first.Sel].(*types.Var); ok && v.IsField() {
				return first.Sel.Name, true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// baseField is baseFieldOfChain for an inner chain known to end at a
// selector.
func baseField(info *types.Info, recv types.Object, sel *ast.SelectorExpr) (string, bool) {
	return baseFieldOfChain(info, recv, sel)
}

func (c *checker) exportFacts() {
	for fn := range c.freezers {
		c.pass.ExportObjectFact(fn, &ImmutableAfterFact{})
	}
	for fn, fields := range c.mutators {
		list := make([]string, 0, len(fields))
		for f := range fields {
			list = append(list, f)
		}
		sort.Strings(list)
		c.pass.ExportObjectFact(fn, &MutatesFact{Fields: list})
	}
}

// checkPostFreeze flags writes through and mutator calls on locals
// bound to freezer results inside one function.
func (c *checker) checkPostFreeze(node *callgraph.Node) {
	info := c.pass.TypesInfo
	// frozen[obj] = position of the freeze; only later statements are
	// violations (the same ident may be re-bound).
	frozen := make(map[types.Object]token.Pos)
	frozenBy := make(map[types.Object]string)

	bind := func(id *ast.Ident, fn *types.Func) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || !shareable(obj.Type()) {
			return
		}
		frozen[obj] = id.Pos()
		frozenBy[obj] = fn.Name()
	}

	freezeCallOf := func(e ast.Expr) *types.Func {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil
		}
		fn := lintutil.Callee(info, call)
		if fn != nil && c.isFreezer(fn) {
			return fn
		}
		return nil
	}

	ast.Inspect(node.Decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
				if fn := freezeCallOf(n.Rhs[0]); fn != nil {
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							bind(id, fn)
						}
					}
				}
				return true
			}
			for i, rhs := range n.Rhs {
				if fn := freezeCallOf(rhs); fn != nil && i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						bind(id, fn)
					}
				}
			}
		case *ast.RangeStmt:
			if fn := freezeCallOf(n.X); fn != nil {
				if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
					bind(id, fn)
				}
			}
		}
		return true
	})
	if len(frozen) == 0 {
		return
	}

	report := func(pos token.Pos, obj types.Object, what string) {
		c.pass.Reportf(pos,
			"%s of %s, frozen by %s: published values are shared with concurrent readers and must not change (frozen)",
			what, obj.Name(), frozenBy[obj])
	}
	rootedFrozen := func(e ast.Expr, needHop bool) (types.Object, bool) {
		root := lintutil.RootIdent(e)
		if root == nil {
			return nil, false
		}
		obj := info.Uses[root]
		if obj == nil {
			return nil, false
		}
		pos, ok := frozen[obj]
		if !ok || root.Pos() <= pos {
			return nil, false
		}
		if needHop {
			if _, plain := e.(*ast.Ident); plain {
				return nil, false // rebinding the variable itself is fine
			}
		}
		return obj, true
	}

	ast.Inspect(node.Decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj, ok := rootedFrozen(lhs, true); ok {
					report(lhs.Pos(), obj, "write through frozen value")
				}
			}
		case *ast.IncDecStmt:
			if obj, ok := rootedFrozen(n.X, true); ok {
				report(n.X.Pos(), obj, "write through frozen value")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, isB := info.Uses[id].(*types.Builtin); isB && b.Name() == "delete" && len(n.Args) > 0 {
					if obj, ok := rootedFrozen(n.Args[0], false); ok {
						report(n.Args[0].Pos(), obj, "delete from frozen value")
					}
				}
				return true
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := rootedFrozen(sel.X, false)
			if !ok {
				return true
			}
			callee := lintutil.Callee(info, n)
			if callee == nil {
				return true
			}
			if len(c.mutatedFields(callee)) > 0 {
				report(n.Pos(), obj, fmt.Sprintf("call of mutating method %s on frozen value", callee.Name()))
			}
		}
		return true
	})
}

// checkFreezerBody flags bare receiver slice/map selectors escaping
// into the frozen result: returned, placed in composite literals, or
// stored into another value's field or element.
func (c *checker) checkFreezerBody(node *callgraph.Node) {
	info := c.pass.TypesInfo
	recv := types.Object(nil)
	if node.Decl.Recv != nil && len(node.Decl.Recv.List) > 0 && len(node.Decl.Recv.List[0].Names) > 0 {
		recv = info.Defs[node.Decl.Recv.List[0].Names[0]]
	}
	if recv == nil {
		return
	}
	lintutil.WalkStack(node.Decl, func(stack []ast.Node, n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !pureRecvSelector(info, recv, sel) {
			return
		}
		tv, ok := info.Types[ast.Expr(sel)]
		if !ok {
			return
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice, *types.Map:
		default:
			return
		}
		if len(stack) == 0 {
			return
		}
		escape := ""
		litIdx := -1 // stack index of the composite literal holding sel
		switch p := stack[len(stack)-1].(type) {
		case *ast.ReturnStmt:
			escape = "returned"
		case *ast.CompositeLit:
			escape = "stored in a composite literal"
			litIdx = len(stack) - 1
		case *ast.KeyValueExpr:
			if p.Value == ast.Expr(sel) && len(stack) >= 2 {
				if _, inLit := stack[len(stack)-2].(*ast.CompositeLit); inLit {
					escape = "stored in a composite literal"
					litIdx = len(stack) - 2
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if rhs != ast.Expr(sel) {
					continue
				}
				var lhs ast.Expr
				if len(p.Lhs) == len(p.Rhs) {
					lhs = p.Lhs[i]
				} else if len(p.Lhs) > 0 {
					lhs = p.Lhs[0]
				}
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					escape = "stored into another value"
				}
			}
		}
		if escape == "" {
			return
		}
		// A composite literal handed straight to a call is an
		// ephemeral view the callee consumes, not state escaping into
		// the frozen result.
		if litIdx > 0 {
		arg:
			for i := litIdx - 1; i >= 0; i-- {
				switch stack[i].(type) {
				case *ast.ParenExpr, *ast.UnaryExpr, *ast.KeyValueExpr, *ast.CompositeLit:
					continue
				case *ast.CallExpr:
					return
				default:
					break arg
				}
			}
		}
		c.pass.Reportf(sel.Pos(),
			"freezer %s: mutable field %s %s without a copy; clip (s[:n:n]) or copy it so the frozen value cannot be changed through the receiver (frozen)",
			node.Fn.Name(), sel.Sel.Name, escape)
	})
}

// pureRecvSelector reports whether sel is recv.F or recv.F.G... with
// only plain selector hops (no index, slice, or call in the chain).
func pureRecvSelector(info *types.Info, recv types.Object, sel *ast.SelectorExpr) bool {
	if v, ok := info.Uses[sel.Sel].(*types.Var); !ok || !v.IsField() {
		return false
	}
	e := sel.X
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.Uses[x] == recv
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); !ok || !v.IsField() {
				return false
			}
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// checkConstructor flags constructors of freezable types that store a
// caller-owned slice/map parameter straight into the value they build.
func (c *checker) checkConstructor(node *callgraph.Node) {
	info := c.pass.TypesInfo
	sig, ok := node.Fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || len(node.Fn.Name()) < 4 || node.Fn.Name()[:3] != "New" {
		return
	}
	var built *types.Named
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if p, isP := t.(*types.Pointer); isP {
			t = p.Elem()
		}
		if named, isN := t.(*types.Named); isN && c.freezable(named) {
			built = named
			break
		}
	}
	if built == nil {
		return
	}
	params := make(map[types.Object]bool)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		switch p.Type().Underlying().(type) {
		case *types.Slice, *types.Map:
			params[p] = true
		}
	}
	if len(params) == 0 {
		return
	}
	flag := func(e ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || !params[info.Uses[id]] {
			return
		}
		c.pass.Reportf(e.Pos(),
			"constructor %s stores caller-owned parameter %s in to-be-frozen %s without copying; a later caller write would leak through the freeze (frozen)",
			node.Fn.Name(), id.Name, built.Obj().Name())
	}
	ast.Inspect(node.Decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			tv, ok := info.Types[ast.Expr(n)]
			if !ok {
				return true
			}
			t := tv.Type
			if p, isP := t.(*types.Pointer); isP {
				t = p.Elem()
			}
			if t != built.Obj().Type() {
				return true
			}
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					flag(kv.Value)
				} else {
					flag(el)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				root := lintutil.RootIdent(sel)
				if root == nil {
					continue
				}
				obj := info.Uses[root]
				if obj == nil {
					continue
				}
				t := obj.Type()
				if p, isP := t.(*types.Pointer); isP {
					t = p.Elem()
				}
				if t == built.Obj().Type() {
					flag(n.Rhs[i])
				}
			}
		}
		return true
	})
}

// freezable reports whether named has a freezer method in this
// package's set (methods of named whose *types.Func is a freezer).
func (c *checker) freezable(named *types.Named) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if c.freezers[named.Method(i)] {
			return true
		}
	}
	// Pointer-receiver methods are on the named type's method list
	// already (NumMethods covers both for a defined type).
	return false
}
