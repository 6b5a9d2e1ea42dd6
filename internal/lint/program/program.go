// Package program is the whole-program layer of the pboxlint engine
// (DESIGN.md §14). The per-package passes of the original suite could only
// see call chains that stayed inside one package: a telemetry handler that
// re-enters internal/core with a lock held, or a flightrec helper that
// sweeps spools from a snapshot reader, was invisible. This package builds
// one module-wide view from the loader's packages — every function
// declaration indexed across package boundaries, the static call graph over
// them, its strongly-connected components in bottom-up order — so passes can
// compute SCC-ordered function summaries that cross the
// internal/telemetry → internal/core, internal/flightrec → internal/core,
// and internal/capture → internal/core edges.
//
// Object identity across packages is the subtle part: when the loader
// type-checks package A from source, A's view of an imported package B comes
// from compiled export data, so the *types.Func for B.Foo seen from A is a
// different object than the one produced by B's own source check. The index
// therefore keys functions by types.Func.FullName (which embeds the package
// path and receiver), bridging export-data and source objects of the same
// function.
package program

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"pbox/internal/lint/loader"
)

// Func is one declared function or method of the program, with its body and
// the package context needed to resolve names inside it.
type Func struct {
	// Obj is the source-checked object from the defining package.
	Obj *types.Func
	// Decl is the declaration; Decl.Body is non-nil (bodyless declarations
	// are not indexed — there is nothing to summarize).
	Decl *ast.FuncDecl
	// Pkg is the defining package; Pkg.Info resolves identifiers in Decl.
	Pkg *loader.Package

	// Callees are the statically-resolved program functions this one calls,
	// deduplicated, in deterministic order.
	Callees []*Func
	// Callers is the reverse edge set, same ordering guarantees.
	Callers []*Func

	key string
	scc int // index into Program.sccs
}

// Name returns the bare function name.
func (f *Func) Name() string { return f.Obj.Name() }

// FullName returns the package-qualified name (the index key).
func (f *Func) FullName() string { return f.key }

// Program is the module-wide analysis view shared by every pass of one
// driver run.
type Program struct {
	// Pkgs are the loaded packages, in loader order.
	Pkgs []*loader.Package

	funcs map[string]*Func
	order []*Func // deterministic whole-program order (sorted by key)
	sccs  [][]*Func
	cache map[string]any
}

// Build indexes every function declaration of pkgs, resolves the static
// call graph, and computes its SCCs.
func Build(pkgs []*loader.Package) *Program {
	p := &Program{
		Pkgs:  pkgs,
		funcs: make(map[string]*Func),
		cache: make(map[string]any),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := fn.FullName()
				if _, dup := p.funcs[key]; dup {
					continue // e.g. same package loaded twice; first wins
				}
				p.funcs[key] = &Func{Obj: fn, Decl: fd, Pkg: pkg, key: key}
			}
		}
	}
	for _, fn := range p.funcs {
		p.order = append(p.order, fn)
	}
	sort.Slice(p.order, func(i, j int) bool { return p.order[i].key < p.order[j].key })
	p.linkCalls()
	p.computeSCCs()
	return p
}

// linkCalls fills Callees/Callers by resolving every static call in every
// body against the index.
func (p *Program) linkCalls() {
	for _, fn := range p.order {
		seen := make(map[*Func]bool)
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := p.Callee(fn.Pkg.Info, call)
			if callee != nil && !seen[callee] {
				seen[callee] = true
				fn.Callees = append(fn.Callees, callee)
			}
			return true
		})
		sort.Slice(fn.Callees, func(i, j int) bool { return fn.Callees[i].key < fn.Callees[j].key })
	}
	for _, fn := range p.order {
		for _, c := range fn.Callees {
			c.Callers = append(c.Callers, fn)
		}
	}
}

// FuncOf resolves a types.Func — from source checking or export data, or a
// method of an instantiated generic type, by its origin — to its program
// Func, or nil when the function is outside the program (stdlib, bodyless).
func (p *Program) FuncOf(obj *types.Func) *Func {
	if obj == nil {
		return nil
	}
	return p.funcs[obj.Origin().FullName()]
}

// FuncObj resolves the function or method a call names under info — a plain
// or qualified function, a method of a concrete type or of an interface —
// or nil for calls through function values, conversions, and built-ins.
// Passes that match callees by name (a sync lock method, a flush helper)
// use it; the call graph uses CalleeObj.
func FuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// CalleeObj is FuncObj restricted to static calls: a method called through
// an interface has no static callee and resolves to nil.
func CalleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := FuncObj(info, call)
	if fn == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			return nil // dynamically dispatched; no static callee
		}
	}
	return fn
}

// Marked reports whether a function declaration's doc comment carries a
// //pbox: marker line (//pbox:hotpath, //pbox:snapshotreader, ...).
func Marked(fd *ast.FuncDecl, marker string) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, marker) {
			return true
		}
	}
	return false
}

// MarkedAs is Marked lifted to a program function.
func (f *Func) MarkedAs(marker string) bool { return Marked(f.Decl, marker) }

// Callee resolves a call in the context of info to a program function, or
// nil for calls that leave the program.
func (p *Program) Callee(info *types.Info, call *ast.CallExpr) *Func {
	return p.FuncOf(CalleeObj(info, call))
}

// Funcs returns every indexed function in deterministic order.
func (p *Program) Funcs() []*Func { return p.order }

// SCCs returns the call graph's strongly-connected components in bottom-up
// order: every SCC a component calls into appears before it, so a single
// forward sweep with a fixpoint inside each component computes any
// monotone bottom-up summary.
func (p *Program) SCCs() [][]*Func { return p.sccs }

// Cache memoizes one whole-program computation per driver run, so a pass
// invoked once per package computes its module-wide summaries exactly once.
func (p *Program) Cache(key string, build func() any) any {
	if v, ok := p.cache[key]; ok {
		return v
	}
	v := build()
	p.cache[key] = v
	return v
}

// computeSCCs runs Tarjan's algorithm over the call graph. Tarjan emits
// components in reverse topological order of the condensation — callees'
// components before callers' — which is exactly the bottom-up order
// summaries need.
func (p *Program) computeSCCs() {
	type nodeState struct {
		index, lowlink int
		onStack        bool
		visited        bool
	}
	states := make(map[*Func]*nodeState, len(p.order))
	for _, fn := range p.order {
		states[fn] = &nodeState{}
	}
	var (
		counter int
		stack   []*Func
	)
	var strongconnect func(v *Func)
	strongconnect = func(v *Func) {
		sv := states[v]
		sv.visited = true
		sv.index, sv.lowlink = counter, counter
		counter++
		stack = append(stack, v)
		sv.onStack = true
		for _, w := range v.Callees {
			sw := states[w]
			if !sw.visited {
				strongconnect(w)
				if sw.lowlink < sv.lowlink {
					sv.lowlink = sw.lowlink
				}
			} else if sw.onStack && sw.index < sv.lowlink {
				sv.lowlink = sw.index
			}
		}
		if sv.lowlink == sv.index {
			var comp []*Func
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				states[w].onStack = false
				w.scc = len(p.sccs)
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Slice(comp, func(i, j int) bool { return comp[i].key < comp[j].key })
			p.sccs = append(p.sccs, comp)
		}
	}
	for _, fn := range p.order {
		if !states[fn].visited {
			strongconnect(fn)
		}
	}
}

// RootIdent peels selector, index, star, and paren layers off an expression
// and returns the base identifier, or nil when the base is not a plain
// identifier (a call result, a composite literal, ...). The second result
// reports whether any layer was peeled — i.e. whether the expression reaches
// *through* the base rather than naming it.
func RootIdent(e ast.Expr) (*ast.Ident, bool) {
	peeled := false
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, peeled
		case *ast.SelectorExpr:
			e, peeled = x.X, true
		case *ast.IndexExpr:
			e, peeled = x.X, true
		case *ast.StarExpr:
			e, peeled = x.X, true
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil, peeled
			}
			e = x.X
		default:
			return nil, peeled
		}
	}
}

// VarOf resolves an identifier, defining or using, to its variable, or nil
// when it names something else.
func VarOf(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// IsBuiltin reports whether e names the predeclared built-in function name
// (not a shadowing user declaration).
func IsBuiltin(info *types.Info, e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// Named peels pointers off t and returns the named type underneath, or nil.
func Named(t types.Type) *types.Named {
	for t != nil {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// RecvNamed returns the named type fn is a method of, through a pointer
// receiver too, or nil for a plain function.
func RecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return Named(sig.Recv().Type())
}

// lockMethods are the sync methods MutexCall recognizes, each mapped to
// whether it acquires. TryLock counts as an acquisition: an opportunistic
// path takes the lock as surely as a blocking one when it succeeds.
var lockMethods = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
	"Unlock": false, "RUnlock": false,
}

// MutexCall recognizes owner.field.M(), where M is a lock or unlock method
// of package sync (a Mutex or RWMutex field, possibly embedded) and owner's
// type is a named type, possibly behind pointers. It returns the owner
// type's name, the field, and whether M acquires. A mutex that is not a
// field of a named type (a local, a parameter) is not recognized.
func MutexCall(info *types.Info, call *ast.CallExpr) (owner, field string, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false, false
	}
	acquire, isLock := lockMethods[sel.Sel.Name]
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if !isLock || fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false, false
	}
	base, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false, false
	}
	named := Named(info.Types[base.X].Type)
	if named == nil {
		return "", "", false, false
	}
	return named.Obj().Name(), base.Sel.Name, acquire, true
}
