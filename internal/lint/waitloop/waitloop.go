// Package waitloop is the companion static analyzer of the paper's §4.5
// (Algorithm 2) as a pass of the typed lint engine (DESIGN.md §14). A task
// usually interferes with another by making it wait (§4.2.2), so the pass
// reports each for loop that calls a waiting function, or a wrapper of one,
// and whose exit conditions read shared state: a candidate site for
// update_pbox state events, the state being the likely virtual resource.
//
// The findings are advisory, not violations: cmd/pboxlint runs the pass
// only when selected (-passes waitloop), and cmd/pboxanalyze is its front
// end.
package waitloop

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"pbox/internal/lint/analysis"
	"pbox/internal/lint/driver"
	"pbox/internal/lint/loader"
	"pbox/internal/lint/program"
)

// Analyzer is the waitloop pass.
var Analyzer = &analysis.Analyzer{
	Name: "waitloop",
	Doc: "Algorithm 2: flag waiting calls inside loops gated on shared " +
		"state as candidate pBox state-event locations (advisory)",
	Run: run,
}

// DefaultWaitFuncs lists the standard waiting functions, by
// types.Func.FullName: the paper's list (semop, pthread_cond_wait, ...)
// translated to Go. sync.(*WaitGroup).Wait is left out on purpose: it waits
// for goroutines to finish, not for a holder to release a resource.
func DefaultWaitFuncs() []string {
	return []string{
		"time.Sleep",
		"runtime.Gosched",
		"(*sync.Cond).Wait",
		"pbox/internal/exec.SleepPrecise",
		"pbox/internal/exec.IOWait",
	}
}

// WaitFuncs overrides the waiting-function list with full names (nil
// selects DefaultWaitFuncs). Set by cmd/pboxanalyze's -waitfuncs flag
// before the driver runs.
var WaitFuncs []string

// Location is one candidate program point for state-event annotation.
type Location struct {
	File string
	Line int
	// Func is the enclosing function.
	Func string
	// WaitCall is the waiting function (or wrapper) called.
	WaitCall string
	// SharedVars are the shared state the loop's exit conditions read —
	// the likely virtual resources.
	SharedVars []string
}

// String renders the location like a compiler diagnostic.
func (l Location) String() string {
	return fmt.Sprintf("%s:%d: in %s: wait via %s, shared vars: %s",
		l.File, l.Line, l.Func, l.WaitCall, strings.Join(l.SharedVars, ", "))
}

// Result is the pass's output for one package, or for a pattern's packages
// merged by AnalyzePattern.
type Result struct {
	// Locations are the candidate annotation points, by file and line.
	Locations []Location
	// Wrappers are the package's wrappers of waiting functions, sorted.
	Wrappers []string
	// InspectedFuncs is the number of function declarations examined.
	InspectedFuncs int
	// Files is the number of source files.
	Files int
}

func run(pass *analysis.Pass) (any, error) {
	waits := waitSet(pass.Prog)
	res := &Result{Files: len(pass.Files)}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			res.InspectedFuncs++
			fn := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			name := funcName(fn, pass.Pkg)
			if waits[fn.FullName()] {
				res.Wrappers = append(res.Wrappers, name)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				loop, ok := n.(*ast.ForStmt)
				if !ok {
					return true
				}
				if call, wait, vars := check(pass.TypesInfo, waits, loop); len(vars) > 0 {
					pos := pass.Fset.Position(call.Pos())
					l := Location{pos.Filename, pos.Line, name, funcName(wait, pass.Pkg), program.SortedKeys(vars)}
					res.Locations = append(res.Locations, l)
					pass.Reportf(call.Pos(), "wait via %s inside loop gated on shared vars (%s): candidate pbox state-event location in %s",
						l.WaitCall, strings.Join(l.SharedVars, ", "), name)
				}
				return true
			})
		}
	}
	slices.Sort(res.Wrappers)
	return res, nil
}

// check returns the first call in loop's body that waits, with the shared
// state the loop's exit conditions read: the for condition, and the
// condition of each if in the body that leaves the loop. A loop that does
// not wait reads no state.
func check(info *types.Info, waits map[string]bool, loop *ast.ForStmt) (call *ast.CallExpr, wait *types.Func, vars map[string]bool) {
	// The calls the body evaluates, as the path interpreter sees them: a go
	// statement's call and a deferred one wait in no iteration.
	program.Interpret(loop.Body, program.Paths[bool]{
		Call: func(c *ast.CallExpr, _ program.Facts[bool]) {
			if call == nil {
				if wait = waitFunc(info, c, waits); wait != nil {
					call = c
				}
			}
		},
	})
	if call == nil {
		return nil, nil, nil
	}
	vars = map[string]bool{}
	if loop.Cond != nil {
		sharedState(info, loop.Cond, vars)
	}
	for _, stmt := range loop.Body.List {
		if ifs, ok := stmt.(*ast.IfStmt); ok && exits(ifs.Body) {
			sharedState(info, ifs.Cond, vars)
		}
	}
	return call, wait, vars
}

// waitFunc returns the function call names when it is a waiting function
// or a wrapper of one, and nil otherwise.
func waitFunc(info *types.Info, call *ast.CallExpr, waits map[string]bool) *types.Func {
	if fn := program.FuncObj(info, call); fn != nil {
		if _, ok := waits[fn.Origin().FullName()]; ok {
			return fn
		}
	}
	return nil
}

// waitSet returns, once per program, the full names of the waiting
// functions (false) and of their wrappers (true), found bottom-up over the
// SCCs with a fixpoint inside each, so a wrapper of a wrapper is one too.
func waitSet(prog *program.Program) map[string]bool {
	return prog.Cache("waitloop.waits", func() any {
		list := WaitFuncs
		if list == nil {
			list = DefaultWaitFuncs()
		}
		waits := make(map[string]bool, len(list))
		for _, name := range list {
			waits[name] = false
		}
		for _, scc := range prog.SCCs() {
			for changed := true; changed; {
				changed = false
				for _, fn := range scc {
					if _, ok := waits[fn.FullName()]; !ok && waitsOnEveryPath(fn, waits) {
						waits[fn.FullName()] = true
						changed = true
					}
				}
			}
		}
		return waits
	}).(map[string]bool)
}

// waitsOnEveryPath reports whether a wait post-dominates fn's entry: the
// fact "not yet waited" holds at entry, a wait or a defer of one clears it,
// and paths join by union, so no exit sees it only when every path to it
// waited. A body no path leaves is not a wrapper.
func waitsOnEveryPath(fn *program.Func, waits map[string]bool) bool {
	const unwaited = true // the one fact
	info := fn.Pkg.Info
	wait := func(call *ast.CallExpr, facts program.Facts[bool]) {
		if waitFunc(info, call, waits) != nil {
			delete(facts, unwaited)
		}
	}
	exited, missed := false, false
	program.Interpret(fn.Decl.Body, program.Paths[bool]{
		Entry: program.Facts[bool]{unwaited: fn.Decl.Pos()},
		Call:  wait,
		Defer: func(d *ast.DeferStmt, facts program.Facts[bool]) { wait(d.Call, facts) },
		Exit: func(facts program.Facts[bool], _ *ast.ReturnStmt) {
			exited = true
			missed = missed || len(facts) > 0
		},
	})
	return exited && !missed
}

// exits reports whether a loop body's block leaves the loop: a return, or
// a break outside inner loops. Function literals are bodies of their own.
func exits(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			found = found || x.Tok == token.BREAK && x.Label == nil
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}

// sharedState adds to vars the shared state cond reads, rendered as
// written: package-level variables, field selections, and sync/atomic
// values a method is called on. Parameters and locals are not shared.
func sharedState(info *types.Info, cond ast.Expr, vars map[string]bool) {
	ast.Inspect(cond, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if packageVar(info.Uses[x]) {
				vars[x.Name] = true
			}
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			switch {
			case sel == nil: // a qualified identifier
				if packageVar(info.Uses[x.Sel]) {
					vars[types.ExprString(x)] = true
				}
				return false
			case sel.Kind() == types.FieldVal:
				vars[types.ExprString(x)] = true
				return false
			case sel.Kind() == types.MethodVal && isAtomic(sel.Recv()):
				vars[types.ExprString(x.X)] = true
				return false
			}
		}
		return true
	})
}

func packageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func isAtomic(t types.Type) bool {
	named := program.Named(t)
	return named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

// funcName renders fn as its full name with type parameters dropped and
// the package path cut to the package's name, or away inside package from:
// (*resource).sleep, (*Queue).Push, exec.SleepPrecise, (*sync.Cond).Wait.
func funcName(fn *types.Func, from *types.Package) string {
	name, pkg := fn.Origin().FullName(), fn.Pkg()
	if pkg != nil {
		qual := pkg.Name() + "."
		if pkg.Path() == from.Path() {
			qual = ""
		}
		name = strings.Replace(name, pkg.Path()+".", qual, 1)
	}
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] + name[strings.IndexByte(name, ']')+1:]
	}
	return name
}

// AnalyzePattern is the structured front door of the pass, shared by
// cmd/pboxanalyze and the Table 5 experiment: it loads every package the
// pattern matches (relative to module directory dir), runs the pass
// through the driver, and merges the per-package results into one.
func AnalyzePattern(dir, pattern string) (*Result, error) {
	pkgs, err := loader.Load(dir, pattern)
	if err != nil {
		return nil, err
	}
	// Only the pass's values are read: the diagnostics, suppression
	// findings among them, are pboxlint's to report.
	res, err := driver.Run(pkgs, []*analysis.Analyzer{Analyzer}, []*analysis.Analyzer{Analyzer})
	if err != nil {
		return nil, err
	}
	merged := &Result{}
	for _, ret := range res.Returns {
		r := ret.Value.(*Result)
		merged.Files += r.Files
		merged.InspectedFuncs += r.InspectedFuncs
		merged.Locations = append(merged.Locations, r.Locations...)
		merged.Wrappers = append(merged.Wrappers, r.Wrappers...)
	}
	slices.Sort(merged.Wrappers)
	merged.Wrappers = slices.Compact(merged.Wrappers)
	slices.SortStableFunc(merged.Locations, func(a, b Location) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line))
	})
	return merged, nil
}
