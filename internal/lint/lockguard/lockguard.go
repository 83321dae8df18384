// Package lockguard defines the bgplint analyzer that infers which
// struct fields a sync.Mutex guards and flags accesses that skip the
// lock.
//
// The inference is per struct type: a field is guarded by a mutex
// field of the same struct when at least one WRITE to it happens with
// that mutex held (a lock region, position-based: after x.mu.Lock()
// and before the next x.mu.Unlock(); a deferred unlock holds to the
// end of the function). Writes include plain assignment, IncDec,
// address-taking, and pointer-receiver method calls on a chain rooted
// at the field (e.stats.ObserveRAS(...) writes e.stats). Once a field
// is guarded, EVERY access — read or write — must hold one of its
// guarding mutexes.
//
// Three escape hatches keep the rule usable:
//
//   - Constructor exemption: accesses through a variable the function
//     itself created (&T{...}, new(T)) are exempt — nothing else can
//     see the value yet, so NewEngine-style setup needs no lock.
//   - Held-context methods: an unexported method whose every
//     statically known call site runs with the mutex held (or on a
//     constructor-fresh receiver, or inside another held-context
//     method) is itself analyzed as holding the lock — the
//     "queueSeal/flushSeals: called with e.mu held" convention,
//     verified instead of trusted. Verified methods export a
//     HoldsFact.
//   - Test files: _test.go code neither establishes guards nor gets
//     flagged; tests routinely poke single-threaded internals.
//
// Guarded-field sets are exported as a GuardedFieldsFact on the struct
// type, so a package that reaches into another package's exported
// guarded field without its lock is flagged at the access site.
package lockguard

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc: "flag accesses to mutex-guarded struct fields made without holding the lock\n\n" +
		"A field written with a sync.Mutex sibling held is inferred to be guarded\n" +
		"by it; every other access must then hold one of its guarding mutexes.\n" +
		"Helper methods whose every call site holds the lock are analyzed as\n" +
		"held-context (HoldsFact); guarded sets cross packages (GuardedFieldsFact);\n" +
		"constructor-fresh values and _test.go files are exempt.",
	Run:       run,
	Requires:  []*analysis.Analyzer{callgraph.Analyzer},
	FactTypes: []analysis.Fact{(*GuardedFieldsFact)(nil), (*HoldsFact)(nil)},
}

// A FieldGuard names one guarded field and the mutex fields guarding
// it, within one struct type.
type FieldGuard struct {
	Field   string
	Mutexes []string
}

// A GuardedFieldsFact attaches to a struct type whose fields are
// mutex-guarded, so accesses from other packages are checked too.
type GuardedFieldsFact struct {
	Guards []FieldGuard
}

// AFact marks GuardedFieldsFact as a fact type.
func (*GuardedFieldsFact) AFact() {}

func (f *GuardedFieldsFact) String() string {
	parts := make([]string, len(f.Guards))
	for i, g := range f.Guards {
		parts[i] = g.Field + ":" + strings.Join(g.Mutexes, "+")
	}
	return "guarded{" + strings.Join(parts, " ") + "}"
}

// A HoldsFact attaches to a method verified to run with the named
// receiver mutexes held at every statically known call site.
type HoldsFact struct {
	Mutexes []string
}

// AFact marks HoldsFact as a fact type.
func (*HoldsFact) AFact() {}

func (f *HoldsFact) String() string {
	return "holds{" + strings.Join(f.Mutexes, " ") + "}"
}

// lockEvent is one x.mu.Lock() / x.mu.Unlock() call, keyed by the
// access root and the mutex field name.
type lockEvent struct {
	pos  token.Pos
	lock bool
}

// access is one use of a (possibly guarded) field through a root
// identifier: root.field, or a chain rooted there.
type access struct {
	pos   token.Pos
	root  types.Object // variable the chain is rooted at
	typ   *types.Named // struct type owning the field
	field string
	write bool
	fn    *types.Func // enclosing declared function, nil at package scope
	decl  *ast.FuncDecl
}

// fnInfo is the per-function lock state.
type fnInfo struct {
	decl   *ast.FuncDecl
	fn     *types.Func
	events map[evKey][]lockEvent // sorted by pos
	exempt map[types.Object]bool // constructor-fresh locals
	recv   types.Object          // receiver var, methods only
}

type evKey struct {
	root  types.Object
	mutex string
}

type checker struct {
	pass    *analysis.Pass
	graph   *callgraph.Result
	structs map[*types.Named][]string // locked structs of this package → mutex field names
	fns     map[*types.Func]*fnInfo
	order   []*fnInfo
	accs    []access
	// heldCtx[fn][mutex] means fn is a verified held-context method for
	// its receiver's mutex.
	heldCtx map[*types.Func]map[string]bool
	// guards[type][field][mutex] is the inferred guard relation.
	guards map[*types.Named]map[string]map[string]bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{
		pass:    pass,
		graph:   pass.ResultOf[callgraph.Analyzer].(*callgraph.Result),
		structs: make(map[*types.Named][]string),
		fns:     make(map[*types.Func]*fnInfo),
		heldCtx: make(map[*types.Func]map[string]bool),
		guards:  make(map[*types.Named]map[string]map[string]bool),
	}
	c.collectStructs()
	c.collectFunctions()
	c.inferHeldContexts()
	c.inferGuards()
	c.exportFacts()
	c.report()
	return nil, nil
}

// collectStructs finds this package's struct types that carry a
// sync.Mutex/RWMutex field.
func (c *checker) collectStructs() {
	scope := c.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || lintutil.IsTestFile(c.pass.Fset, tn.Pos()) {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var mutexes []string
		for i := 0; i < st.NumFields(); i++ {
			if isMutex(st.Field(i).Type()) {
				mutexes = append(mutexes, st.Field(i).Name())
			}
		}
		if len(mutexes) > 0 {
			c.structs[named] = mutexes
		}
	}
}

func isMutex(t types.Type) bool {
	return lintutil.IsNamedType(t, "sync", "Mutex", "RWMutex")
}

// isAtomicOrSync reports field types the analyzer must not treat as
// data: mutexes themselves, other sync primitives, and sync/atomic
// values (atomicpub's domain).
func isAtomicOrSync(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

// lockedStruct resolves t (after pointers) to a named struct with
// mutex fields — of this package or, via fact, another one. The mutex
// names come from the local table or the struct's own fields.
func (c *checker) lockedStruct(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	if _, ok := c.structs[named]; ok {
		return named, true
	}
	if named.Obj().Pkg() != nil && named.Obj().Pkg() != c.pass.Pkg {
		var fact GuardedFieldsFact
		if c.pass.ImportObjectFact(named.Obj(), &fact) {
			return named, true
		}
	}
	return nil, false
}

// collectFunctions gathers lock events, field accesses and
// constructor-fresh locals for every non-test function declaration.
func (c *checker) collectFunctions() {
	for _, node := range c.graph.Order {
		if lintutil.IsTestFile(c.pass.Fset, node.Decl.Pos()) {
			continue
		}
		fi := &fnInfo{
			decl:   node.Decl,
			fn:     node.Fn,
			events: make(map[evKey][]lockEvent),
			exempt: make(map[types.Object]bool),
		}
		if r := node.Decl.Recv; r != nil && len(r.List) > 0 && len(r.List[0].Names) > 0 {
			fi.recv = c.pass.TypesInfo.Defs[r.List[0].Names[0]]
		}
		c.fns[node.Fn] = fi
		c.order = append(c.order, fi)
		c.scanBody(fi)
	}
	for _, fi := range c.order {
		for k := range fi.events {
			evs := fi.events[k]
			sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
			fi.events[k] = evs
		}
	}
}

// scanBody walks one function body, recording lock events, accesses,
// and constructor-fresh locals.
func (c *checker) scanBody(fi *fnInfo) {
	info := c.pass.TypesInfo
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(fi.decl, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})

	lintutil.WalkStack(fi.decl, func(stack []ast.Node, n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Constructor-fresh locals: v := &T{...} / T{} / new(T).
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if named, ok := c.lockedStruct(obj.Type()); ok && isFreshValue(info, n.Rhs[i], named) {
					fi.exempt[obj] = true
				}
			}
		case *ast.CallExpr:
			c.scanCall(fi, n, deferred[n])
		case *ast.SelectorExpr:
			c.scanSelector(fi, stack, n)
		}
	})
}

// isFreshValue reports whether e constructs a brand-new value of named:
// &T{...}, T{...}, or new(T).
func isFreshValue(info *types.Info, e ast.Expr, named *types.Named) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	switch e := e.(type) {
	case *ast.CompositeLit:
		tv, ok := info.Types[ast.Expr(e)]
		if !ok {
			return false
		}
		t := tv.Type
		if p, isP := t.(*types.Pointer); isP {
			t = p.Elem()
		}
		return t == named.Obj().Type()
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, isB := info.Uses[id].(*types.Builtin); isB && b.Name() == "new" {
				return true
			}
		}
	}
	return false
}

// scanCall records root.M.Lock()/Unlock() events. Deferred unlocks are
// dropped: they fire at return, so the region stays held.
func (c *checker) scanCall(fi *fnInfo, call *ast.CallExpr, isDeferred bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	var lock bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
		lock = false
	default:
		return
	}
	mutexSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	root, ok := ast.Unparen(mutexSel.X).(*ast.Ident)
	if !ok {
		return
	}
	rootObj := c.pass.TypesInfo.Uses[root]
	if rootObj == nil {
		return
	}
	if _, isVar := rootObj.(*types.Var); !isVar {
		return
	}
	if _, ok := c.lockedStruct(rootObj.Type()); !ok {
		return
	}
	fieldObj, ok := c.pass.TypesInfo.Uses[mutexSel.Sel].(*types.Var)
	if !ok || !fieldObj.IsField() || !isMutex(fieldObj.Type()) {
		return
	}
	if isDeferred {
		return
	}
	k := evKey{root: rootObj, mutex: fieldObj.Name()}
	fi.events[k] = append(fi.events[k], lockEvent{pos: call.Pos(), lock: lock})
}

// scanSelector records one base field access root.F where root is a
// variable of a locked struct type. Deeper selector hops, index
// expressions and the enclosing statement decide whether it is a
// write.
func (c *checker) scanSelector(fi *fnInfo, stack []ast.Node, sel *ast.SelectorExpr) {
	info := c.pass.TypesInfo
	root, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	rootObj := info.Uses[root]
	if rootObj == nil {
		return
	}
	if _, isVar := rootObj.(*types.Var); !isVar {
		return
	}
	named, ok := c.lockedStruct(rootObj.Type())
	if !ok {
		return
	}
	fieldObj, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !fieldObj.IsField() || isAtomicOrSync(fieldObj.Type()) {
		return
	}
	// Only fields declared on the struct itself (not promoted ones from
	// embedded types; those belong to the embedded type's contract).
	if !structHasField(named, fieldObj.Name()) {
		return
	}
	c.accs = append(c.accs, access{
		pos:   sel.Sel.Pos(),
		root:  rootObj,
		typ:   named,
		field: fieldObj.Name(),
		write: isWriteContext(info, stack, sel),
		fn:    fi.fn,
		decl:  fi.decl,
	})
}

func structHasField(named *types.Named, name string) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return true
		}
	}
	return false
}

// isWriteContext classifies the access: climb the selector/index chain
// upward from sel, then look at how the chain is used. A
// pointer-receiver method selected on the chain (e.stats.ObserveRAS)
// counts as a write — it mutates, or may mutate, the field.
func isWriteContext(info *types.Info, stack []ast.Node, sel *ast.SelectorExpr) bool {
	cur := ast.Node(sel)
	i := len(stack) - 1
climb:
	for ; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.SelectorExpr:
			if p.X != cur {
				break climb
			}
			if fn, ok := info.Uses[p.Sel].(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					_, isPtr := sig.Recv().Type().(*types.Pointer)
					return isPtr
				}
				return false
			}
			cur = p
		case *ast.IndexExpr:
			if p.X != cur {
				break climb
			}
			cur = p
		case *ast.ParenExpr:
			cur = p
		default:
			break climb
		}
	}
	if i < 0 {
		return false
	}
	switch p := stack[i].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == cur {
				return true
			}
		}
	case *ast.IncDecStmt:
		return p.X == cur
	case *ast.UnaryExpr:
		return p.Op == token.AND && p.X == cur
	}
	return false
}

// held reports whether mutex is held at pos for accesses through root
// in fi: the last lock event before pos is a Lock. A deferred unlock
// produced no event, so a Lock+defer-Unlock prologue holds to the end.
func (fi *fnInfo) held(root types.Object, mutex string, pos token.Pos) bool {
	evs := fi.events[evKey{root: root, mutex: mutex}]
	held := false
	for _, ev := range evs {
		if ev.pos >= pos {
			break
		}
		held = ev.lock
	}
	return held
}

// inferHeldContexts runs the greatest-fixpoint over unexported methods
// of locked structs: start by assuming every candidate holds every
// receiver mutex, then demote any (method, mutex) with a call site
// that provably does not hold it.
func (c *checker) inferHeldContexts() {
	type site struct {
		caller *fnInfo
		call   *ast.CallExpr
		root   types.Object
	}
	sites := make(map[*types.Func][]site)
	candidates := make(map[*types.Func]*types.Named)

	for _, fi := range c.order {
		fn := fi.fn
		if fi.recv == nil || fn.Exported() {
			continue
		}
		named, ok := c.lockedStruct(fi.recv.Type())
		if !ok || named.Obj().Pkg() != c.pass.Pkg {
			continue
		}
		for _, caller := range c.graph.CallersOf[fn] {
			callerFi := c.fns[caller.Fn]
			if callerFi == nil {
				continue // test-file caller: unknown context
			}
			for _, call := range caller.Calls {
				if call.Callee != fn {
					continue
				}
				fun, ok := ast.Unparen(call.Site.Fun).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				root, ok := ast.Unparen(fun.X).(*ast.Ident)
				if !ok {
					continue
				}
				if obj := c.pass.TypesInfo.Uses[root]; obj != nil {
					sites[fn] = append(sites[fn], site{caller: callerFi, call: call.Site, root: obj})
				}
			}
		}
		if len(sites[fn]) > 0 {
			candidates[fn] = named
		}
	}

	for fn, named := range candidates {
		m := make(map[string]bool)
		for _, mu := range c.structs[named] {
			m[mu] = true
		}
		c.heldCtx[fn] = m
	}
	for changed := true; changed; {
		changed = false
		for fn := range candidates {
			for mutex, ok := range c.heldCtx[fn] {
				if !ok {
					continue
				}
				for _, s := range sites[fn] {
					if s.caller.exempt[s.root] {
						continue
					}
					if s.caller.held(s.root, mutex, s.call.Pos()) {
						continue
					}
					// A held-context caller passes the context on, but only
					// through its own receiver.
					if s.root == s.caller.recv && c.heldCtx[s.caller.fn][mutex] {
						continue
					}
					c.heldCtx[fn][mutex] = false
					changed = true
					break
				}
			}
		}
	}
}

// heldAt reports whether the access holds mutex: an explicit lock
// region, or the enclosing method is held-context and the access goes
// through its receiver.
func (c *checker) heldAt(a access, mutex string) bool {
	fi := c.fns[a.fn]
	if fi == nil {
		return false
	}
	if fi.held(a.root, mutex, a.pos) {
		return true
	}
	return a.root == fi.recv && fi.recv != nil && c.heldCtx[a.fn][mutex]
}

// inferGuards builds the guard relation from the writes of this
// package's own locked structs.
func (c *checker) inferGuards() {
	for _, a := range c.accs {
		if !a.write || a.typ.Obj().Pkg() != c.pass.Pkg {
			continue
		}
		fi := c.fns[a.fn]
		if fi == nil || fi.exempt[a.root] {
			continue
		}
		for _, mutex := range c.structs[a.typ] {
			if c.heldAt(a, mutex) {
				g := c.guards[a.typ]
				if g == nil {
					g = make(map[string]map[string]bool)
					c.guards[a.typ] = g
				}
				if g[a.field] == nil {
					g[a.field] = make(map[string]bool)
				}
				g[a.field][mutex] = true
			}
		}
	}
}

// guardsOf returns the sorted guarding mutexes of (typ, field): local
// inference for this package's types, imported facts otherwise.
func (c *checker) guardsOf(typ *types.Named, field string) []string {
	if typ.Obj().Pkg() == c.pass.Pkg {
		set := c.guards[typ][field]
		if len(set) == 0 {
			return nil
		}
		out := make([]string, 0, len(set))
		for m := range set {
			out = append(out, m)
		}
		sort.Strings(out)
		return out
	}
	var fact GuardedFieldsFact
	if !c.pass.ImportObjectFact(typ.Obj(), &fact) {
		return nil
	}
	for _, g := range fact.Guards {
		if g.Field == field {
			return g.Mutexes
		}
	}
	return nil
}

func (c *checker) exportFacts() {
	for named := range c.structs {
		g := c.guards[named]
		if len(g) == 0 {
			continue
		}
		fields := make([]string, 0, len(g))
		for f := range g {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		fact := &GuardedFieldsFact{}
		for _, f := range fields {
			mus := make([]string, 0, len(g[f]))
			for m := range g[f] {
				mus = append(mus, m)
			}
			sort.Strings(mus)
			fact.Guards = append(fact.Guards, FieldGuard{Field: f, Mutexes: mus})
		}
		c.pass.ExportObjectFact(named.Obj(), fact)
	}
	for fn, m := range c.heldCtx {
		var mus []string
		for mu, ok := range m {
			if ok {
				mus = append(mus, mu)
			}
		}
		if len(mus) == 0 {
			continue
		}
		sort.Strings(mus)
		c.pass.ExportObjectFact(fn, &HoldsFact{Mutexes: mus})
	}
}

// report flags every access to a guarded field that holds none of its
// guarding mutexes. One suggested fix per method: wrap the body in
// Lock/defer Unlock when the method does no locking of its own.
func (c *checker) report() {
	fixed := make(map[*ast.FuncDecl]bool)
	for _, a := range c.accs {
		guards := c.guardsOf(a.typ, a.field)
		if len(guards) == 0 {
			continue
		}
		fi := c.fns[a.fn]
		if fi == nil || fi.exempt[a.root] {
			continue
		}
		held := false
		for _, mutex := range guards {
			if c.heldAt(a, mutex) {
				held = true
				break
			}
		}
		if held {
			continue
		}
		verb := "read"
		if a.write {
			verb = "write"
		}
		tn := a.typ.Obj().Name()
		d := analysis.Diagnostic{
			Pos: a.pos,
			Message: fmt.Sprintf(
				"%s of %s.%s without holding %s.%s; the field is accessed under that lock everywhere else (lockguard)",
				verb, tn, a.field, tn, strings.Join(guards, " or "+tn+".")),
		}
		if fix, ok := c.lockFix(a, guards[0]); ok && !fixed[a.decl] {
			d.SuggestedFixes = []analysis.SuggestedFix{fix}
			fixed[a.decl] = true
		}
		c.pass.Report(d)
	}
}

// lockFix offers to wrap the enclosing method in lock/defer-unlock,
// but only when the access goes through the receiver and the method
// performs no locking of its own (otherwise the insertion could
// deadlock or misplace the region).
func (c *checker) lockFix(a access, mutex string) (analysis.SuggestedFix, bool) {
	fi := c.fns[a.fn]
	if fi == nil || fi.recv == nil || a.root != fi.recv || fi.decl.Body == nil {
		return analysis.SuggestedFix{}, false
	}
	if len(fi.events) > 0 {
		return analysis.SuggestedFix{}, false
	}
	recvName := fi.recv.Name()
	if recvName == "" || recvName == "_" {
		return analysis.SuggestedFix{}, false
	}
	ins := fmt.Sprintf("\n\t%s.%s.Lock()\n\tdefer %s.%s.Unlock()\n", recvName, mutex, recvName, mutex)
	return analysis.SuggestedFix{
		Message: fmt.Sprintf("acquire %s.%s for the whole method", recvName, mutex),
		TextEdits: []analysis.TextEdit{{
			Pos:     fi.decl.Body.Lbrace + 1,
			End:     fi.decl.Body.Lbrace + 1,
			NewText: []byte(ins),
		}},
	}, true
}
