// Call-closure properties: the one summary engine the closure passes share.
// A property is a set of facts of type T that a call can establish on its
// own (a lock class taken, a Manager method re-entered, a spool flushed);
// a function's summary is every fact its static call closure establishes.
// Summaries answer "what does this callee do?" at a call that leaves the
// package; CheckClosure walks the calls inside the package, so a finding
// names the call that made it.
package program

import (
	"go/ast"
	"go/types"
	"sort"
)

// Property is one call-closure property.
type Property[T comparable] struct {
	// Key names the property's summary table in Program.Cache.
	Key string
	// Direct classifies one call under the info of the package it is made
	// in: the fact the call itself establishes, if any. A classified call's
	// callee is not consulted.
	Direct func(info *types.Info, call *ast.CallExpr) (T, bool)
	// Stop, when set, names the functions the property does not look into:
	// their summaries stay empty, so their callers inherit nothing from
	// them, and CheckClosure does not walk or judge a call to one.
	Stop func(*Func) bool
}

func (pr Property[T]) stops(fn *Func) bool { return pr.Stop != nil && pr.Stop(fn) }

// Summaries computes, once per program, the property's summary of every
// function: the facts Direct finds in its body plus the summaries of its
// static callees, bottom-up over the call-graph SCCs with a fixpoint inside
// each component. Functions that establish nothing have no entry.
func Summaries[T comparable](p *Program, pr Property[T]) map[*Func]map[T]bool {
	return p.Cache(pr.Key, func() any {
		sums := make(map[*Func]map[T]bool)
		add := func(fn *Func, t T) bool {
			if sums[fn] == nil {
				sums[fn] = make(map[T]bool)
			}
			if sums[fn][t] {
				return false
			}
			sums[fn][t] = true
			return true
		}
		for _, scc := range p.sccs {
			for changed := true; changed; {
				changed = false
				for _, fn := range scc {
					if pr.stops(fn) {
						continue
					}
					info := fn.Pkg.Info
					ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						if t, ok := pr.Direct(info, call); ok {
							changed = add(fn, t) || changed
						} else {
							// A stopped callee's summary is empty; so is
							// that of a call leaving the program (nil).
							for t := range sums[p.Callee(info, call)] {
								changed = add(fn, t) || changed
							}
						}
						return true
					})
				}
			}
		}
		return sums
	}).(map[*Func]map[T]bool)
}

// Finding is one violation CheckClosure reports.
type Finding[T comparable] struct {
	Call *ast.CallExpr
	// Via is " (via f)" when the call sits in f, a same-package function
	// the entry reaches, and "" when it sits in the entry itself.
	Via string
	// Callee is nil when Direct classified Call as Fact; otherwise Call
	// leaves the entry's package into Callee, whose summary is Summary.
	Callee  *Func
	Fact    T
	Summary map[T]bool
}

// CheckClosure walks entry's static call closure inside entry's package
// and reports every call Direct classifies, plus every call into another
// package whose callee's summary is non-empty. The finding is anchored at
// the call in entry's package, where the invariant was combined and where
// a suppression can be written.
func CheckClosure[T comparable](p *Program, pr Property[T], entry *Func, report func(Finding[T])) {
	sums := Summaries(p, pr)
	seen := map[*Func]bool{}
	var visit func(fn *Func, via string)
	visit = func(fn *Func, via string) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		info := fn.Pkg.Info
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if t, ok := pr.Direct(info, call); ok {
				report(Finding[T]{Call: call, Via: via, Fact: t})
				return true
			}
			callee := p.Callee(info, call)
			switch {
			case callee == nil || pr.stops(callee):
			case callee.Pkg == entry.Pkg:
				next := via
				if next == "" {
					next = " (via " + callee.Name() + ")"
				}
				visit(callee, next)
			case len(sums[callee]) > 0:
				report(Finding[T]{Call: call, Via: via, Callee: callee, Summary: sums[callee]})
			}
			return true
		})
	}
	visit(entry, "")
}

// SortedKeys returns a string set's members in order, for messages.
func SortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
