// Package snapshot enforces the contract of the manager's published view
// (DESIGN.md §9, §12, §14). Readers load a published value — a StatusView,
// a shard set, a label — with no lock and may hold it indefinitely, so the
// contract has three rules.
//
//  1. Read-only view. A function must not write through a root or a local
//     alias of one. A write is a field or element store, ++/--, copy() into
//     it, or a call passing it to a parameter the callee's §14 mutation
//     summary (ParamMask) marks as written. The roots are:
//     - every *StatusView the function obtained — a parameter, a receiver,
//     an accessor's or a load's result — rather than built itself
//     (&StatusView{...}, new(StatusView)), from the function's start;
//     - every value passed to atomic.Pointer.Store or Swap, from the call
//     on, and the previously published value Swap returns, which readers
//     may still hold;
//     - the new value of a CompareAndSwap, from the call on, for every
//     element type the program also publishes a non-nil value of with
//     Store or Swap. A Pointer fed only by CompareAndSwap and cleared by
//     Store(nil) is an ownership hint to a lock-guarded object (PBox.spool),
//     not a snapshot: its owner writes it on, under that lock.
//     A reference-like local assigned from a path rooted at a root is an
//     alias (q := v, c := v.Counts, p := &v.Status); a value copy (sv := *v)
//     is not. Builder context — functions marked //pbox:snapshotbuilder,
//     and functions all of whose callers are builder context — may fill in
//     the views it obtained. It is never exempt from the publish roots.
//
//  2. Readers. The static call closure of a //pbox:snapshotreader function
//     takes no shard lock and calls none of lockAllShards, sweepSpools,
//     flushHinted or eventSpool.flush: it serves from the published view and
//     atomics, never stopping the world. A builder is the sanctioned
//     escalation (the rebuild a stale reader triggers), so the walk stops
//     there. A call into another package is judged by the callee's
//     summary and reported at the crossing.
//
//  3. No sync/atomic free functions. A field reached by atomic.AddInt64 can
//     also be read plainly, which races; the typed atomics (atomic.Int64,
//     atomic.Pointer) make that impossible, and the module uses only them.
//
// The rules are one-sided in the suite's usual direction (DESIGN.md §9):
// aliases that escape through fields, interfaces or globals are missed,
// never invented. Suppress intentional exceptions with
// //pboxlint:ignore snapshot <reason>.
package snapshot

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"pbox/internal/lint/analysis"
	"pbox/internal/lint/program"
)

// Analyzer is the snapshot pass.
var Analyzer = &analysis.Analyzer{
	Name: "snapshot",
	Doc: "published values and obtained StatusViews are read-only, " +
		"//pbox:snapshotreader functions never stop the world, and sync/atomic " +
		"free functions are not used",
	Run: run,
}

// The names in internal/core the pass keys on. Fixtures declare types of the
// same names.
const (
	// ViewType is the published snapshot type.
	ViewType = "StatusView"
	// SpoolType declares flush; ShardType declares the shard locks.
	SpoolType = "eventSpool"
	ShardType = "shard"
)

// FlushCalls are the functions whose mere invocation stops the world or
// steals spooled events off worker fast paths.
var FlushCalls = map[string]string{
	"sweepSpools":   "flushes every hinted spool (flush-on-read)",
	"flushHinted":   "flushes the spool a pBox's hint names (flush-on-read)",
	"lockAllShards": "takes every shard lock (stop-the-world sweep)",
}

const (
	atomicPkg = "sync/atomic"
	immutable = " — published values are immutable; build a new value and re-publish it"
	readOnly  = ", which reaches an obtained StatusView — published snapshots are deeply read-only outside //pbox:snapshotbuilder context"
	readerEnd = ": //pbox:snapshotreader functions serve from the published view and atomics only"
)

// ReaderMarker opts a function into rule 2; BuilderMarker marks the
// sanctioned rebuild, which rules 1 and 2 exempt.
const (
	ReaderMarker  = "//pbox:snapshotreader"
	BuilderMarker = "//pbox:snapshotbuilder"
)

func isBuilder(fn *program.Func) bool { return fn.MarkedAs(BuilderMarker) }

// interference is rule 2's call-closure property: the stop-the-world
// operations a closure performs, described.
var interference = program.Property[string]{
	Key:    "snapshot.interference",
	Direct: stopsTheWorld,
	Stop:   isBuilder,
}

func run(pass *analysis.Pass) (any, error) {
	builders := builderContext(pass.Prog)
	for _, f := range pass.Files {
		checkFreeFunctions(pass, f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			fn := pass.Prog.FuncOf(obj)
			checkWrites(pass, fd, builders[fn])
			if fn != nil && fn.MarkedAs(ReaderMarker) {
				checkReader(pass, fn)
			}
		}
	}
	return nil, nil
}

// --- rule 1: read-only view ---

// A root is a value fd must not write through.
type root struct {
	obj *types.Var
	// after is the publishing call's end: writes up to it do not count.
	// It is NoPos for an obtained view, which is read-only throughout.
	after token.Pos
	// whole: the variable itself was published (&v), so even rebinding it
	// writes published memory.
	whole bool
	why   string // message tail
}

// checkWrites flags writes through fd's roots and their aliases. builder
// exempts the views fd obtained, not the values it published.
func checkWrites(pass *analysis.Pass, fd *ast.FuncDecl, builder bool) {
	info := pass.TypesInfo
	var roots []*root
	if !builder {
		roots = obtainedViews(info, fd)
	}
	roots = append(roots, publishes(pass, fd)...)
	if len(roots) == 0 {
		return
	}

	// Aliases: a reference-like local assigned from a path rooted at a root
	// or at another alias reaches what that one reaches.
	reach := make(map[*types.Var][]*root)
	for _, r := range roots {
		reach[r.obj] = append(reach[r.obj], r)
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				from := rootVar(info, as.Rhs[i])
				if !ok || from == nil {
					continue
				}
				v := program.VarOf(info, id)
				if v == nil || v == from || !program.ReferenceLike(v.Type()) {
					continue
				}
				for _, r := range reach[from] {
					if !slices.Contains(reach[v], r) {
						reach[v] = append(reach[v], r)
						changed = true
					}
				}
			}
			return true
		})
	}

	// flag reports a write at pos through the path e, if it is one. store:
	// e is assigned to, so rebinding a pointer local is no write. views: a
	// builder callee may write the views the caller obtained.
	flag := func(pos token.Pos, how string, e ast.Expr, store, views bool) bool {
		id, peeled := program.RootIdent(e)
		if id == nil {
			return false
		}
		v := program.VarOf(info, id)
		for _, r := range reach[v] {
			switch {
			case pos <= r.after:
			case store && !peeled && !(r.whole && v == r.obj):
			case !views && r.after == token.NoPos:
			default:
				pass.Reportf(pos, "%s %s%s", how, v.Name(), r.why)
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			// One finding per statement: a, b = b, a is one write.
			for _, lhs := range x.Lhs {
				if flag(x.Pos(), "write through", lhs, true, true) {
					break
				}
			}
		case *ast.IncDecStmt:
			flag(x.Pos(), "write through", x.X, true, true)
		case *ast.CallExpr:
			if program.IsBuiltin(info, x.Fun, "copy") && len(x.Args) > 0 {
				flag(x.Pos(), "copy into", x.Args[0], false, true)
				return true
			}
			callee := pass.Prog.Callee(info, x)
			if callee == nil {
				return true
			}
			mask := pass.Prog.MutationSummaries()[callee]
			for i, arg := range program.CallArgExprs(info, x, callee) {
				if arg != nil && mask.Has(i) {
					flag(x.Pos(), "call to "+callee.Name()+" (which writes through its parameter) passing", arg, false, !isBuilder(callee))
				}
			}
		}
		return true
	})
}

// rootVar returns the variable a path (v, v.f, v[i], *v, &v.f) starts at.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	id, _ := program.RootIdent(e)
	if id == nil {
		return nil
	}
	return program.VarOf(info, id)
}

// obtainedViews returns fd's *StatusView variables that ever hold a view
// the function obtained — a parameter, a receiver, a multi-value result, a
// range value, any assignment but a fresh construction.
func obtainedViews(info *types.Info, fd *ast.FuncDecl) []*root {
	var roots []*root
	note := func(id *ast.Ident, rhs ast.Expr) {
		v := program.VarOf(info, id)
		if v == nil || !isViewPtr(v.Type()) || rhs != nil && isFreshView(info, rhs) {
			return
		}
		if !slices.ContainsFunc(roots, func(r *root) bool { return r.obj == v }) {
			roots = append(roots, &root{obj: v, why: readOnly})
		}
	}
	for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if fl != nil {
			for _, field := range fl.List {
				for _, name := range field.Names {
					note(name, nil)
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					var rhs ast.Expr
					if len(x.Lhs) == len(x.Rhs) {
						rhs = x.Rhs[i]
					}
					note(id, rhs)
				}
			}
		case *ast.ValueSpec:
			// var v *StatusView is nil until an assignment classifies it.
			for i, name := range x.Names {
				if i < len(x.Values) {
					note(name, x.Values[i])
				} else if x.Values != nil {
					note(name, nil)
				}
			}
		case *ast.RangeStmt:
			if id, ok := x.Value.(*ast.Ident); ok {
				note(id, nil)
			}
		}
		return true
	})
	return roots
}

// isViewPtr reports whether t is *StatusView (through named pointer types
// too).
func isViewPtr(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Name() == ViewType
}

// isFreshView reports whether rhs constructs a new StatusView:
// &StatusView{...} or new(StatusView).
func isFreshView(info *types.Info, rhs ast.Expr) bool {
	var t types.Type
	switch e := ast.Unparen(rhs).(type) {
	case *ast.UnaryExpr:
		if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok && e.Op == token.AND {
			t = info.Types[cl].Type
		}
	case *ast.CallExpr:
		if program.IsBuiltin(info, e.Fun, "new") && len(e.Args) == 1 {
			t = info.Types[e.Args[0]].Type
		}
	}
	named, _ := t.(*types.Named)
	return named != nil && named.Obj().Name() == ViewType
}

// builderContext computes the functions allowed to write the views they
// obtained: the //pbox:snapshotbuilder-marked ones and those reachable only
// from builder context. Greatest fixpoint: start from "every function with
// callers could qualify" and strike out functions with a non-builder caller
// until stable, so helpers shared between the rebuild and an ordinary
// reader do not qualify.
func builderContext(prog *program.Program) map[*program.Func]bool {
	return prog.Cache("snapshot.builders", func() any {
		ctx := make(map[*program.Func]bool)
		for _, fn := range prog.Funcs() {
			ctx[fn] = isBuilder(fn) || len(fn.Callers) > 0
		}
		for changed := true; changed; {
			changed = false
			for _, fn := range prog.Funcs() {
				if ctx[fn] && !isBuilder(fn) && slices.ContainsFunc(fn.Callers, func(c *program.Func) bool { return !ctx[c] }) {
					ctx[fn] = false
					changed = true
				}
			}
		}
		return ctx
	}).(map[*program.Func]bool)
}

// publishArgs are the atomic.Pointer methods that publish their last
// argument, with their argument count.
var publishArgs = map[string]int{"Store": 1, "Swap": 1, "CompareAndSwap": 2}

// publishes returns the values fd publishes, each a root from its
// publishing call on, and the values its Swaps return.
func publishes(pass *analysis.Pass, fd *ast.FuncDecl) []*root {
	info := pass.TypesInfo
	var roots []*root
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr)
			id, isIdent := x.Lhs[0].(*ast.Ident)
			if !ok || !isIdent {
				return true
			}
			if method, _ := pointerPublish(info, call); method == "Swap" {
				if v := program.VarOf(info, id); v != nil {
					roots = append(roots, &root{obj: v, after: call.End(),
						why: " after receiving the previously published value from atomic.Pointer.Swap into " + v.Name() + immutable})
				}
			}
		case *ast.CallExpr:
			method, elem := pointerPublish(info, x)
			if method == "" || method == "CompareAndSwap" && !snapshotElems(pass.Prog)[elem] {
				return true
			}
			if v, whole := publishedVar(info, x.Args[len(x.Args)-1]); v != nil {
				roots = append(roots, &root{obj: v, after: x.End(), whole: whole,
					why: " after " + v.Name() + " was published via atomic.Pointer." + method + immutable})
			}
		}
		return true
	})
	return roots
}

// pointerPublish reports the method name and the element type T when call is
// a publishing method of an atomic.Pointer[T] receiver, "" otherwise.
func pointerPublish(info *types.Info, call *ast.CallExpr) (method, elem string) {
	fn := program.FuncObj(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != atomicPkg {
		return "", ""
	}
	if n, ok := publishArgs[fn.Name()]; !ok || n != len(call.Args) {
		return "", ""
	}
	recv := program.RecvNamed(fn)
	if recv == nil || recv.Obj().Name() != "Pointer" || recv.TypeArgs().Len() != 1 {
		return "", ""
	}
	return fn.Name(), types.TypeString(recv.TypeArgs().At(0), nil)
}

// snapshotElems collects, once per program, the element types T some
// atomic.Pointer[T].Store or Swap publishes a non-nil value of: the Pointers
// that hold immutable snapshots, which a CompareAndSwap publishes to as well.
func snapshotElems(prog *program.Program) map[string]bool {
	return prog.Cache("snapshot.elems", func() any {
		set := make(map[string]bool)
		for _, fn := range prog.Funcs() {
			info := fn.Pkg.Info
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if method, elem := pointerPublish(info, call); method == "Store" || method == "Swap" {
						if !info.Types[call.Args[0]].IsNil() {
							set[elem] = true
						}
					}
				}
				return true
			})
		}
		return set
	}).(map[string]bool)
}

// publishedVar resolves a published expression to the variable to track.
// &v publishes the variable itself (whole); a reference-like v publishes
// what it points at, so only writes through it count.
func publishedVar(info *types.Info, arg ast.Expr) (v *types.Var, whole bool) {
	switch e := ast.Unparen(arg).(type) {
	case *ast.UnaryExpr:
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && e.Op == token.AND {
			return program.VarOf(info, id), true
		}
	case *ast.Ident:
		if v := program.VarOf(info, e); v != nil && program.ReferenceLike(v.Type()) {
			return v, false
		}
	}
	return nil, false
}

// --- rule 2: readers ---

// checkReader walks a reader's call closure for stop-the-world operations.
func checkReader(pass *analysis.Pass, entry *program.Func) {
	program.CheckClosure(pass.Prog, interference, entry, func(f program.Finding[string]) {
		if f.Callee == nil {
			pass.Reportf(f.Call.Pos(), "snapshot reader %s%s %s"+readerEnd, entry.Name(), f.Via, f.Fact)
			return
		}
		pass.Reportf(f.Call.Pos(), "snapshot reader %s%s calls %s, whose call closure %s"+readerEnd,
			entry.Name(), f.Via, f.Callee.Name(), strings.Join(program.SortedKeys(f.Summary), "; "))
	})
}

// stopsTheWorld describes call when it is a stop-the-world operation.
func stopsTheWorld(info *types.Info, call *ast.CallExpr) (string, bool) {
	if fn := program.FuncObj(info, call); fn != nil {
		if why, ok := FlushCalls[fn.Name()]; ok {
			return "calls " + fn.Name() + ", which " + why, true
		}
		if recv := program.RecvNamed(fn); fn.Name() == "flush" && recv != nil && recv.Obj().Name() == SpoolType {
			return "calls " + SpoolType + ".flush, which steals a worker's spool buffer (flush-on-read)", true
		}
	}
	if owner, field, acquire, ok := program.MutexCall(info, call); ok && acquire && owner == ShardType {
		return "acquires a shard lock (" + owner + "." + field + ")", true
	}
	return "", false
}

// --- rule 3: no sync/atomic free functions ---

// checkFreeFunctions flags every use of a sync/atomic package-level
// function, called or taken as a value.
func checkFreeFunctions(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if ok && fn.Pkg() != nil && fn.Pkg().Path() == atomicPkg && program.RecvNamed(fn) == nil {
			pass.Reportf(id.Pos(), "sync/atomic free function %s: a field it reaches can also be accessed plainly, which races — use the typed atomics (atomic.Int64, atomic.Pointer), whose type forbids plain access", fn.Name())
		}
		return true
	})
}
