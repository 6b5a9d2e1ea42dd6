// Package analyzer implements the companion static analyzer of Section 4.5
// (Algorithm 2), retargeted from LLVM IR to Go source: it finds candidate
// program locations where update_pbox state events should be added.
//
// The algorithm follows the paper's heuristic (Section 4.2.2): intra-app
// performance interference usually comes down to the application using
// waiting calls to block a victim task. The analyzer therefore
//
//  1. takes a list of standard waiting functions (time.Sleep and friends);
//  2. identifies application wrappers of those functions by checking that a
//     wait call post-dominates the wrapper's entry (approximated on the Go
//     AST as an unconditional top-level wait call);
//  3. finds every call site of a waiting function or wrapper;
//  4. checks whether the call site is inside a loop whose exit condition
//     depends on variables shared among activities (package-level state,
//     struct fields, atomics);
//  5. reports each such location with the shared variables — the likely
//     virtual resources — so developers can add the four state events.
package analyzer

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
)

// DefaultWaitFuncs lists the standard waiting functions for Go code; the
// paper's list (semop, pthread_cond_wait, ...) translated to the Go world.
func DefaultWaitFuncs() []string {
	return []string{
		"time.Sleep",
		"runtime.Gosched",
		"sync.(*Cond).Wait",
		"exec.SleepPrecise",
		"exec.IOWait",
	}
}

// Location is one candidate program point for state-event annotation.
type Location struct {
	Pos  token.Pos // of the wait call, in the FileSet the files were parsed into
	File string
	Line int
	// Func is the enclosing function.
	Func string
	// WaitCall is the waiting function (or wrapper) called.
	WaitCall string
	// SharedVars are the shared variables the loop condition depends on —
	// the likely virtual resources.
	SharedVars []string
}

// String renders the location like a compiler diagnostic.
func (l Location) String() string {
	return fmt.Sprintf("%s:%d: in %s: wait via %s, shared vars: %s",
		l.File, l.Line, l.Func, l.WaitCall, strings.Join(l.SharedVars, ", "))
}

// Result is the analyzer output for one package tree.
type Result struct {
	// Locations are the candidate annotation points.
	Locations []Location
	// Wrappers are functions identified as wrappers of waiting functions.
	Wrappers []string
	// InspectedFuncs is the number of function declarations examined.
	InspectedFuncs int
	// Files is the number of parsed source files.
	Files int
}

// Analyzer runs Algorithm 2 over Go source trees.
type Analyzer struct {
	waitFuncs map[string]bool
}

// New creates an analyzer for the given waiting functions (nil selects
// DefaultWaitFuncs).
func New(waitFuncs []string) *Analyzer {
	if waitFuncs == nil {
		waitFuncs = DefaultWaitFuncs()
	}
	m := make(map[string]bool, len(waitFuncs))
	for _, f := range waitFuncs {
		m[f] = true
	}
	return &Analyzer{waitFuncs: m}
}

// AnalyzeSource analyzes a single in-memory source file (tests, examples).
func (a *Analyzer) AnalyzeSource(filename, src string) (*Result, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return a.AnalyzeFiles(fset, []*ast.File{f}), nil
}

// AnalyzeFiles analyzes already-parsed files against fset — the entry point
// used by the pboxlint waitloop pass, through which every source tree is
// analyzed (one loading and reporting stack for Algorithm 2 and the
// go/analysis-style passes).
func (a *Analyzer) AnalyzeFiles(fset *token.FileSet, files []*ast.File) *Result {
	res := &Result{Files: len(files)}

	// Pass 1: collect function declarations and identify wrappers
	// (isWrapper of Algorithm 2). Iterate until no new wrappers appear so
	// wrappers-of-wrappers are found (the paper notes its analyzer missed
	// deep call chains; the fixpoint closes that gap).
	type fn struct {
		decl *ast.FuncDecl
		name string
	}
	var fns []fn
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fns = append(fns, fn{decl: fd, name: funcName(fd)})
		}
	}
	res.InspectedFuncs = len(fns)

	waiting := make(map[string]bool, len(a.waitFuncs))
	for w := range a.waitFuncs {
		waiting[w] = true
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			if waiting[f.name] {
				continue
			}
			if postDominatedByWait(f.decl.Body, waiting) {
				waiting[f.name] = true
				res.Wrappers = append(res.Wrappers, f.name)
				changed = true
			}
		}
	}
	sort.Strings(res.Wrappers)

	// Pass 2: find call sites of waiting functions inside loops whose
	// conditions use shared variables.
	for _, f := range fns {
		locals := collectLocals(f.decl)
		ast.Inspect(f.decl.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			call, callee := firstWaitCall(loop.Body, waiting)
			if call == nil {
				return true
			}
			shared := sharedVarsOfLoop(loop, locals)
			if len(shared) == 0 {
				return true
			}
			pos := fset.Position(call.Pos())
			res.Locations = append(res.Locations, Location{
				Pos:        call.Pos(),
				File:       pos.Filename,
				Line:       pos.Line,
				Func:       f.name,
				WaitCall:   callee,
				SharedVars: shared,
			})
			return true
		})
	}
	sort.Slice(res.Locations, func(i, j int) bool {
		if res.Locations[i].File != res.Locations[j].File {
			return res.Locations[i].File < res.Locations[j].File
		}
		return res.Locations[i].Line < res.Locations[j].Line
	})
	return res
}

// funcName renders a declaration name as Recv.Method or Func.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return fmt.Sprintf("(%s).%s", typeName(fd.Recv.List[0].Type), fd.Name.Name)
	}
	return fd.Name.Name
}

func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	default:
		return "?"
	}
}

// calleeName renders a call target as pkg.Func or (T).Method-ish text.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Name + "." + f.Sel.Name
		}
		return "." + f.Sel.Name
	default:
		return ""
	}
}

// matches reports whether a callee name refers to a waiting function. Method
// wrappers are matched by their bare method name suffix so that
// "(*resource).sleep" matches a call "r.sleep()".
func matches(waiting map[string]bool, callee string) (string, bool) {
	if callee == "" {
		return "", false
	}
	if waiting[callee] {
		return callee, true
	}
	// r.sleep() — compare the method part against method-style entries.
	if i := strings.LastIndex(callee, "."); i >= 0 {
		suffix := callee[i+1:]
		for w := range waiting {
			if j := strings.LastIndex(w, "."); j >= 0 && w[j+1:] == suffix && strings.Contains(w, ")") {
				return w, true
			}
		}
	}
	return "", false
}

// postDominatedByWait approximates the paper's post-dominator check: the
// function body contains a wait call at its top statement level (executed on
// every path that reaches the function end without early return guards).
func postDominatedByWait(body *ast.BlockStmt, waiting map[string]bool) bool {
	for _, stmt := range body.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		if _, ok := matches(waiting, calleeName(call)); ok {
			return true
		}
	}
	return false
}

// firstWaitCall finds the first call to a waiting function (or wrapper)
// anywhere in the loop body.
func firstWaitCall(body *ast.BlockStmt, waiting map[string]bool) (*ast.CallExpr, string) {
	var found *ast.CallExpr
	var name string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if w, ok := matches(waiting, calleeName(call)); ok {
			found, name = call, w
			return false
		}
		return true
	})
	return found, name
}

// sharedVarsOfLoop collects shared variables from the loop's exit
// conditions: the for-condition itself, plus conditions of if-statements in
// the loop body that lead to break or return (the common `for { if ok {
// break }; sleep() }` shape of Figure 9).
func sharedVarsOfLoop(loop *ast.ForStmt, locals map[string]bool) []string {
	vars := map[string]bool{}
	if loop.Cond != nil {
		collectShared(loop.Cond, locals, vars)
	}
	for _, stmt := range loop.Body.List {
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok || !exits(ifs.Body) {
			continue
		}
		collectShared(ifs.Cond, locals, vars)
	}
	out := make([]string, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// exits reports whether the block (or a nested block, excluding inner
// loops) breaks out of the loop or returns.
func exits(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		if found {
			return false
		}
		switch st := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false // a break inside an inner loop exits that loop
		case *ast.BranchStmt:
			if st.Tok == token.BREAK && st.Label == nil {
				found = true
			}
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}

// collectShared gathers expressions in cond that reference shared state:
// selector expressions (struct fields, package vars) and calls on them
// (atomic Load, length checks on shared containers).
func collectShared(cond ast.Expr, locals map[string]bool, out map[string]bool) {
	builtins := map[string]bool{
		"true": true, "false": true, "nil": true,
		"len": true, "cap": true, "min": true, "max": true,
	}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			// A field access on anything — receiver, package, shared
			// object — counts as shared state; the paper's analyzer
			// over-approximates the same way. The selector's Sel is
			// never visited on its own, so method names don't leak in.
			if id, ok := x.X.(*ast.Ident); ok {
				out[id.Name+"."+x.Sel.Name] = true
				return
			}
			walk(x.X)
		case *ast.CallExpr:
			// A call in the condition: atomic loads, length helpers.
			// The callee's base expression carries the shared state.
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				walk(sel.X)
			}
			for _, arg := range x.Args {
				walk(arg)
			}
		case *ast.Ident:
			if !locals[x.Name] && !builtins[x.Name] {
				out[x.Name] = true
			}
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.IndexExpr:
			walk(x.X)
			walk(x.Index)
		}
	}
	walk(cond)
}

// collectLocals gathers names declared within the function: parameters,
// receivers, and := / var declarations.
func collectLocals(fd *ast.FuncDecl) map[string]bool {
	locals := map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				locals[n.Name] = true
			}
		}
	}
	if fd.Recv != nil {
		addFields(fd.Recv)
	}
	if fd.Type != nil {
		addFields(fd.Type.Params)
		addFields(fd.Type.Results)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						locals[id.Name] = true
					}
				}
			}
		case *ast.GenDecl:
			if s.Tok == token.VAR {
				for _, spec := range s.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, n := range vs.Names {
							locals[n.Name] = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok {
					locals[id.Name] = true
				}
			}
		}
		return true
	})
	return locals
}
