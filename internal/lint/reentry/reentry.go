// Package reentry forbids observer re-entry into the manager. Observer and
// AttributionObserver callbacks fire while manager locks are held
// (internal/core/observer.go documents the contract), so a callback that
// calls back into a Manager method that takes those locks deadlocks — or,
// with RLock, silently reorders the §8 lock graph. A RecordSink's Record
// method runs inside those callbacks (core.RecordObserver calls it), so it
// is held to the same rule.
//
// The pass finds every concrete type in the package that implements an
// interface named Observer, AttributionObserver, or RecordSink (looked up in
// the package itself and its direct imports), takes each of the interface's
// methods the type declares itself as an entry point — except PenaltyServed
// and PenaltyServedFor, which the contract runs outside all locks; methods
// promoted from an embedded adapter are checked once, where the adapter
// declares them — and walks the static call closure. Within the
// package the walk is direct; at a call that crosses into another program
// package it consults the whole-program reach summary (DESIGN.md §14):
// every function's set of transitively reachable Manager lock-taking
// methods, computed bottom-up over the call-graph SCCs. A capture or
// telemetry helper that re-enters internal/core is therefore a finding at
// the crossing call site, anchored in the observer's own package where a
// suppression can be written. Any reachable call to a method on the
// Manager type is a finding unless the method is one of the documented
// lock-free accessors: ResourceName, Crossings. Calls through
// non-Manager interfaces (e.g. a ResourceNamer field) are not flagged: the
// indirection is exactly how observers are supposed to defer manager
// access to safe contexts.
package reentry

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"pbox/internal/lint/analysis"
	"pbox/internal/lint/program"
)

// Analyzer is the reentry pass.
var Analyzer = &analysis.Analyzer{
	Name: "reentry",
	Doc: "observer callbacks run under manager locks and must not call " +
		"back into Manager methods that take those locks",
	Run: run,
}

// observerInterfaces are the interface names whose implementations are
// checked.
var observerInterfaces = map[string]bool{
	"Observer":            true,
	"AttributionObserver": true,
	"RecordSink":          true,
}

// lockFree are the Manager methods observers may call: documented to take
// no manager locks (atomic counters and immutable registration data).
var lockFree = map[string]bool{
	"ResourceName": true,
	"Crossings":    true,
}

// outsideLocks are callback methods the Observer contract invokes with no
// manager lock held (penalty sleeps happen outside the event mutexes), so
// re-entry from them is safe.
var outsideLocks = map[string]bool{
	"PenaltyServed":    true,
	"PenaltyServedFor": true,
}

// managerTypeName is the type whose methods are protected.
const managerTypeName = "Manager"

func run(pass *analysis.Pass) (any, error) {
	ifaces := observerIfaces(pass.Pkg)
	if len(ifaces) == 0 {
		return nil, nil
	}
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}

	// Entry points: callback methods of implementing types.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for _, iface := range ifaces {
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if outsideLocks[m.Name()] {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(named, true, pass.Pkg, m.Name())
				entry, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				if recvNamed(entry) != named {
					continue // promoted from an embedded type: checked where it is declared
				}
				check(pass, decls, reachSummaries(pass.Prog), entry, named.Obj().Name()+"."+m.Name())
			}
		}
	}
	return nil, nil
}

// observerIfaces collects the observerInterfaces visible to the package (its own scope and its direct imports).
func observerIfaces(pkg *types.Package) []*types.Interface {
	var out []*types.Interface
	collect := func(p *types.Package) {
		for name := range observerInterfaces {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, iface)
				}
			}
		}
	}
	collect(pkg)
	for _, imp := range pkg.Imports() {
		collect(imp)
	}
	return out
}

// reachSummaries computes — once per program, cached — the set of Manager
// lock-taking method names each function transitively reaches, bottom-up
// over the call-graph SCCs. The lock-free accessors are excluded at the
// source, so a nonempty summary always names a violation.
func reachSummaries(prog *program.Program) map[*program.Func]map[string]bool {
	return prog.Cache("reentry.reach", func() any {
		sums := make(map[*program.Func]map[string]bool, len(prog.Funcs()))
		add := func(fn *program.Func, name string) bool {
			if sums[fn] == nil {
				sums[fn] = make(map[string]bool)
			}
			if sums[fn][name] {
				return false
			}
			sums[fn][name] = true
			return true
		}
		for _, scc := range prog.SCCs() {
			for changed := true; changed; {
				changed = false
				for _, fn := range scc {
					info := fn.Pkg.Info
					ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						if obj := program.CalleeObj(info, call); obj != nil {
							if isManagerMethod(obj) && !lockFree[obj.Name()] {
								if add(fn, obj.Name()) {
									changed = true
								}
							} else if callee := prog.FuncOf(obj); callee != nil {
								for name := range sums[callee] {
									if add(fn, name) {
										changed = true
									}
								}
							}
						}
						return true
					})
				}
			}
		}
		return sums
	}).(map[*program.Func]map[string]bool)
}

// reachedNames renders a summary as a sorted Manager.X list for messages.
func reachedNames(sum map[string]bool) string {
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, "Manager."+n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// check walks the static call closure from entry, flagging reachable
// Manager method calls. Same-package callees are walked directly (findings
// anchor at the offending call); callees in other program packages are
// judged by their whole-program reach summary, with the finding anchored at
// the crossing call site.
func check(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, reach map[*program.Func]map[string]bool, entry *types.Func, callback string) {
	seen := map[*types.Func]bool{}
	var visit func(fn *types.Func, via string)
	visit = func(fn *types.Func, via string) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		fd := decls[fn]
		if fd == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass, call)
			if callee == nil {
				return true
			}
			if isManagerMethod(callee) && !lockFree[callee.Name()] {
				pass.Reportf(call.Pos(),
					"observer callback %s%s calls Manager.%s, which takes manager locks already held at the callback site",
					callback, via, callee.Name())
				return true
			}
			if _, samePkg := decls[callee]; samePkg {
				next := via
				if next == "" {
					next = " (via " + callee.Name() + ")"
				}
				visit(callee, next)
				return true
			}
			// A call that leaves the package: the whole-program summary
			// says whether the callee's closure re-enters the manager.
			if pfn := pass.Prog.FuncOf(callee); pfn != nil {
				if sum := reach[pfn]; len(sum) > 0 {
					pass.Reportf(call.Pos(),
						"observer callback %s%s calls %s, which reaches %s — manager locks are already held at the callback site",
						callback, via, callee.Name(), reachedNames(sum))
				}
			}
			return true
		})
	}
	visit(entry, "")
}

// calleeFunc resolves the static callee of a call, if any.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isManagerMethod reports whether fn is a method declared on the concrete
// Manager type (interface methods don't count: calling through an
// abstraction like ResourceNamer is the sanctioned pattern).
func isManagerMethod(fn *types.Func) bool {
	named := recvNamed(fn)
	if named == nil {
		return false
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return false
	}
	return named.Obj().Name() == managerTypeName
}

// recvNamed returns the named type fn is declared on (through a pointer
// receiver too), or nil when fn is not a method of a named type.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
