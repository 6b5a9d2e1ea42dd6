// Package atomicpublish enforces the publish-then-freeze contract of the
// manager's atomic-pointer snapshots (DESIGN.md §9, §12, §14). The epoch
// read path is correct only if a value published through an atomic.Pointer
// — a shard set, a StatusView, a decision log — is never written again:
// readers load the pointer with no locks, so one post-publish store is a
// data race against every reader holding the view.
//
// Two rules:
//
//  1. At every atomic.Pointer[T].Store or Swap publish site, the published
//     value must not be written through any retained alias after the
//     publish: a later v.Field = x, *v = x, copy(v.S, ...), or a call that
//     passes v into a parameter the callee's whole-program mutation summary
//     marks as written (the §14 bottom-up ParamMask dataflow) is flagged.
//     The value a Swap returns is the previously published one — concurrent
//     readers may still hold it — so writes through the swap result are
//     flagged the same way. The new value of a CompareAndSwap is published
//     from the call on (a write inside `if p.CompareAndSwap(old, next)` races
//     every reader that loaded next), for every element type T the program
//     also publishes with a Store or Swap of a non-nil value. A Pointer whose
//     values arrive only by CompareAndSwap and leave by Store(nil) is an
//     ownership hint to a lock-guarded object (PBox.spool), not a snapshot:
//     its owner writes it on, under that lock.
//
//  2. A field that is accessed through the sync/atomic free functions
//     (atomic.AddInt64(&s.n, 1), atomic.LoadInt64, CompareAndSwapInt64, …)
//     anywhere in the program must never be read or written plainly: the
//     mixed access is a data race the typed atomics make impossible. The
//     atomically-accessed field set is collected program-wide, so an
//     atomic increment in internal/core convicts a plain read in
//     internal/telemetry.
//
// Both rules are one-sided in the suite's usual direction (DESIGN.md §9):
// aliases that escape through fields or interfaces are missed, never
// invented. Suppress intentional exceptions with
// //pboxlint:ignore atomicpublish <reason>.
package atomicpublish

import (
	"go/ast"
	"go/token"
	"go/types"

	"pbox/internal/lint/analysis"
	"pbox/internal/lint/program"
)

// Analyzer is the atomicpublish pass.
var Analyzer = &analysis.Analyzer{
	Name: "atomicpublish",
	Doc: "values published through atomic.Pointer must not be written " +
		"afterward, and sync/atomic-accessed fields must never be accessed plainly",
	Run: run,
}

// atomicPkgPath is the package whose Pointer methods and free functions are
// recognized.
const atomicPkgPath = "sync/atomic"

// publishMethods are the atomic.Pointer methods that publish an argument,
// with that argument's position.
var publishMethods = map[string]int{"Store": 0, "Swap": 0, "CompareAndSwap": 1}

func run(pass *analysis.Pass) (any, error) {
	checkMixedAccess(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkPublishes(pass, fd)
			}
		}
	}
	return nil, nil
}

// --- rule 1: publish sites ---

// checkPublishes finds every atomic.Pointer publish in fd and verifies the
// published value is not written through a retained alias afterward.
func checkPublishes(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, elem := pointerPublish(info, call)
		if method == "" || method == "CompareAndSwap" && !snapshotElems(pass.Prog)[elem] {
			return true
		}
		if obj, whole := publishedRoot(info, call.Args[publishMethods[method]]); obj != nil {
			checkWritesAfter(pass, fd, call.End(), obj, whole,
				obj.Name()+" was published via atomic.Pointer."+method)
		}
		if method == "Swap" {
			if obj := swapResult(info, fd, call); obj != nil {
				checkWritesAfter(pass, fd, call.End(), obj, false,
					"receiving the previously published value from atomic.Pointer.Swap into "+obj.Name())
			}
		}
		return true
	})
}

// pointerPublish reports the method name and the element type T when call is
// a publishing method of an atomic.Pointer[T] receiver, "" otherwise.
func pointerPublish(info *types.Info, call *ast.CallExpr) (method, elem string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	argPos, ok := publishMethods[sel.Sel.Name]
	if !ok || len(call.Args) != argPos+1 {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != atomicPkgPath {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	ptr, ok := sig.Recv().Type().(*types.Pointer)
	if !ok {
		return "", ""
	}
	recv, ok := ptr.Elem().(*types.Named)
	if !ok || recv.Obj().Name() != "Pointer" || recv.TypeArgs().Len() != 1 {
		return "", ""
	}
	return sel.Sel.Name, types.TypeString(recv.TypeArgs().At(0), nil)
}

// snapshotElems collects, once per program, the element types T some
// atomic.Pointer[T].Store or Swap publishes a non-nil value of: the Pointers
// that hold immutable snapshots, which a CompareAndSwap publishes to as well.
func snapshotElems(prog *program.Program) map[string]bool {
	return prog.Cache("atomicpublish.snapshotElems", func() any {
		set := make(map[string]bool)
		for _, fn := range prog.Funcs() {
			info := fn.Pkg.Info
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if method, elem := pointerPublish(info, call); method == "Store" || method == "Swap" {
					if !info.Types[call.Args[0]].IsNil() {
						set[elem] = true
					}
				}
				return true
			})
		}
		return set
	}).(map[string]bool)
}

// publishedRoot resolves the published expression to a trackable local
// object. &v publishes the variable itself (whole = true: every later write
// to v lands in the published value); a plain identifier of reference-like
// type publishes what it points at (only writes *through* it count —
// rebinding the local is fine).
func publishedRoot(info *types.Info, arg ast.Expr) (obj types.Object, whole bool) {
	e := ast.Unparen(arg)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		if id, ok := ast.Unparen(u.X).(*ast.Ident); ok {
			return localVar(info, id), true
		}
		return nil, false
	}
	if id, ok := e.(*ast.Ident); ok {
		if v := localVar(info, id); v != nil && program.ReferenceLike(v.Type()) {
			return v, false
		}
	}
	return nil, false
}

// swapResult returns the object a Swap call's result is bound to, when the
// call is the sole RHS of an enclosing assignment to a plain identifier.
func swapResult(info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr) types.Object {
	var found types.Object
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 || ast.Unparen(as.Rhs[0]) != call {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			found = localVar(info, id)
		}
		return false
	})
	return found
}

// localVar resolves an identifier to its variable object (definition or use).
func localVar(info *types.Info, id *ast.Ident) types.Object {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if v, ok := obj.(*types.Var); ok {
		return v
	}
	return nil
}

// checkWritesAfter flags writes through root (or a local alias of it) at
// positions after the publish. whole means the variable itself was published
// (&v), so unpeeled stores to it count too.
func checkWritesAfter(pass *analysis.Pass, fd *ast.FuncDecl, after token.Pos, root types.Object, whole bool, what string) {
	info := pass.TypesInfo

	// Local aliases: q := v (or q := &v when the variable was published).
	aliases := map[types.Object]bool{root: true}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := localVar(info, id)
				if obj == nil || aliases[obj] {
					continue
				}
				rhs := ast.Unparen(as.Rhs[i])
				if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
					rhs = ast.Unparen(u.X)
				}
				if rid, ok := rhs.(*ast.Ident); ok && aliases[localVar(info, rid)] {
					aliases[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	rooted := func(e ast.Expr) (types.Object, bool) {
		id, peeled := program.RootIdent(e)
		if id == nil {
			return nil, false
		}
		obj := localVar(info, id)
		if obj == nil || !aliases[obj] {
			return nil, false
		}
		return obj, peeled
	}
	report := func(pos token.Pos, how string) {
		pass.Reportf(pos, "%s after %s — published values are immutable; build a new value and re-publish it", how, what)
	}
	flagWrite := func(lhs ast.Expr, pos token.Pos) {
		obj, peeled := rooted(lhs)
		if obj == nil {
			return
		}
		// For a published pointer local, `v = x` rebinds the local and is
		// safe; for a published variable (&v), even the unpeeled store lands
		// in published memory.
		if peeled || (whole && obj == root) {
			report(pos, "write through "+obj.Name())
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil || n.Pos() <= after {
			return true
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				flagWrite(lhs, x.Pos())
			}
		case *ast.IncDecStmt:
			flagWrite(x.X, x.Pos())
		case *ast.CallExpr:
			// copy(v.S, ...) writes through the published value; so does any
			// call whose mutation summary marks the parameter written.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && isBuiltin(info, id, "copy") {
				if len(x.Args) >= 1 {
					if obj, _ := rooted(x.Args[0]); obj != nil {
						report(x.Pos(), "copy into "+obj.Name())
					}
				}
				return true
			}
			callee := pass.Prog.Callee(info, x)
			if callee == nil {
				return true
			}
			msum := pass.Prog.MutationSummaries()[callee]
			if msum == 0 {
				return true
			}
			for pi, argExpr := range program.CallArgExprs(info, x, callee) {
				if argExpr == nil || !msum.Has(pi) {
					continue
				}
				if obj, _ := rooted(argExpr); obj != nil {
					report(x.Pos(), "call to "+callee.Name()+" (which writes through its parameter) passing "+obj.Name())
				}
			}
		}
		return true
	})
}

// --- rule 2: mixed atomic/plain access ---

// atomicFields collects, once per program, the set of fields and
// package-level variables whose address is taken by a sync/atomic free
// function call anywhere in the program, keyed by owning type and name.
func atomicFields(prog *program.Program) map[string]bool {
	return prog.Cache("atomicpublish.fields", func() any {
		set := make(map[string]bool)
		for _, fn := range prog.Funcs() {
			info := fn.Pkg.Info
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !atomicFreeCall(info, call) {
					return true
				}
				for _, arg := range call.Args {
					u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || u.Op != token.AND {
						continue
					}
					if key := accessKey(info, u.X); key != "" {
						set[key] = true
					}
				}
				return true
			})
		}
		return set
	}).(map[string]bool)
}

// atomicFreeCall reports whether call invokes a sync/atomic package-level
// function (the typed atomics are methods and never mix with plain access —
// the field's type forbids it).
func atomicFreeCall(info *types.Info, call *ast.CallExpr) bool {
	fn := program.CalleeObj(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != atomicPkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// accessKey names a field (owner type + field) or package-level variable
// (package + name) in a way that is stable across the export-data/source
// object split, or "" for expressions that are neither.
func accessKey(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		v, ok := info.Uses[x.Sel].(*types.Var)
		if !ok || !v.IsField() {
			return ""
		}
		owner := ownerPath(info.Types[x.X].Type)
		if owner == "" {
			return ""
		}
		return owner + "." + v.Name()
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return ""
		}
		if v.Parent() != v.Pkg().Scope() {
			return "" // locals are single-goroutine unless they escape; skip
		}
		return v.Pkg().Path() + "." + v.Name()
	}
	return ""
}

// checkMixedAccess flags plain (non-&) reads and writes of fields the
// program accesses atomically. Taking the address (&s.n) is exempt — that is
// how the value reaches the atomic functions in the first place.
func checkMixedAccess(pass *analysis.Pass) {
	fields := atomicFields(pass.Prog)
	if len(fields) == 0 {
		return
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		// Operands of & are sanctioned: address-taking is not an access.
		addrOf := make(map[ast.Expr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
				addrOf[ast.Unparen(u.X)] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			var key string
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if addrOf[x] {
					return true
				}
				key = accessKey(info, x)
			case *ast.Ident:
				if addrOf[x] {
					return true
				}
				// Only package-level vars key as bare identifiers; field
				// accesses always come through their selector.
				key = accessKey(info, x)
			default:
				return true
			}
			if key != "" && fields[key] {
				pass.Reportf(n.Pos(),
					"plain access to %s, which is accessed with sync/atomic elsewhere in the program — mixed plain/atomic access is a data race",
					key)
				return false
			}
			return true
		})
	}
}

// ownerPath peels pointers and returns the named type's package-qualified
// name, or "".
func ownerPath(t types.Type) string {
	for t != nil {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// isBuiltin reports whether id resolves to the predeclared builtin name
// (not a shadowing user declaration).
func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
