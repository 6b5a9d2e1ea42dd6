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

// ObserverInterfaces are the interface names whose implementations are
// checked.
var ObserverInterfaces = []string{"Observer", "AttributionObserver", "RecordSink"}

// LockFree are the Manager methods observers may call: documented to take
// no manager locks (atomic counters and immutable registration data).
var LockFree = map[string]bool{
	"ResourceName": true,
	"Crossings":    true,
}

// OutsideLocks are callback methods the Observer contract invokes with no
// manager lock held (penalty sleeps happen outside the event mutexes), so
// re-entry from them is safe.
var OutsideLocks = map[string]bool{
	"PenaltyServed":    true,
	"PenaltyServedFor": true,
}

// ManagerType is the type whose methods are protected.
const ManagerType = "Manager"

// reentrance is the property the pass checks: the Manager lock-taking
// methods a call closure reaches, as "Manager.X". The lock-free accessors
// are excluded at the source, so a non-empty summary always names a
// violation.
var reentrance = program.Property[string]{
	Key: "reentry.reach",
	Direct: func(info *types.Info, call *ast.CallExpr) (string, bool) {
		fn := program.CalleeObj(info, call)
		if fn == nil || LockFree[fn.Name()] {
			return "", false
		}
		// Interface methods do not resolve statically: calling through an
		// abstraction like ResourceNamer is the sanctioned pattern.
		if named := program.RecvNamed(fn); named != nil && named.Obj().Name() == ManagerType {
			return ManagerType + "." + fn.Name(), true
		}
		return "", false
	},
}

func run(pass *analysis.Pass) (any, error) {
	ifaces := observerIfaces(pass.Pkg)
	if len(ifaces) == 0 {
		return nil, nil
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
				if OutsideLocks[m.Name()] {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(named, true, pass.Pkg, m.Name())
				method, ok := obj.(*types.Func)
				if !ok || program.RecvNamed(method) != named {
					continue // promoted from an embedded type: checked where it is declared
				}
				entry := pass.Prog.FuncOf(method)
				if entry == nil {
					continue
				}
				callback := named.Obj().Name() + "." + m.Name()
				program.CheckClosure(pass.Prog, reentrance, entry, func(f program.Finding[string]) {
					if f.Callee == nil {
						pass.Reportf(f.Call.Pos(),
							"observer callback %s%s calls %s, which takes manager locks already held at the callback site",
							callback, f.Via, f.Fact)
						return
					}
					pass.Reportf(f.Call.Pos(),
						"observer callback %s%s calls %s, which reaches %s — manager locks are already held at the callback site",
						callback, f.Via, f.Callee.Name(), strings.Join(program.SortedKeys(f.Summary), ", "))
				})
			}
		}
	}
	return nil, nil
}

// observerIfaces collects the ObserverInterfaces visible to the package (its
// own scope and its direct imports).
func observerIfaces(pkg *types.Package) []*types.Interface {
	var out []*types.Interface
	for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
		for _, name := range ObserverInterfaces {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, iface)
				}
			}
		}
	}
	return out
}
