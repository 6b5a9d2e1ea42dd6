// Package eventpair checks that pBox lifecycle events are emitted in
// matched pairs: every Hold must be matched by an Unhold and every Prepare
// by an Enter on all control-flow paths of the enclosing function
// (DESIGN.md §4 — an unmatched Prepare strands the state machine in
// Preparing and an unmatched Hold leaks a holder entry, deadlocking
// every later competitor on the resource).
//
// Modeled on x/tools' lostcancel: the pass finds calls whose argument list
// contains an opener constant (Prepare or Hold) of the core EventType type,
// derives a pairing key from the callee and the remaining arguments (so
// r.event(a, core.Hold) pairs with r.event(a, core.Unhold) but not with
// q.event(a, core.Unhold)), and then checks that a matching closer call is
// reached on every path that leaves the function, honoring defers.
//
// Split-phase APIs are the one legitimate exception: Mutex.Lock emits Hold
// and returns, with Unhold emitted later by Mutex.Unlock. The pass
// therefore only enforces intra-function pairing when the function itself
// contains BOTH sides of a pair for the same key — a function that opens
// and also closes on some path must close on all paths; a function that
// only opens is a split-phase API and is left to the dynamic state-machine
// checks.
//
// The pass is interprocedural through the whole-program engine (DESIGN.md
// §14): every program function gets an emission summary — the event calls
// its body performs unconditionally (top-level statements and defers, with
// the scan stopping conservatively at the first branching statement) — and
// a call to such a helper counts as emitting those events at the call site,
// with the caller's arguments substituted into the pairing keys. A wrapper
// like emitHold(m, id) in another package therefore pairs against an
// explicit Unhold for the same manager and id, and an early return between
// the two is flagged exactly as if the events were inlined.
package eventpair

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pbox/internal/lint/analysis"
	"pbox/internal/lint/program"
)

// Analyzer is the eventpair pass.
var Analyzer = &analysis.Analyzer{
	Name: "eventpair",
	Doc: "Hold/Unhold and Prepare/Enter events must pair on every " +
		"control-flow path of a function that emits both sides",
	Run: run,
}

// pairs maps opener event name to its closer.
var pairs = map[string]string{
	"Prepare": "Enter",
	"Hold":    "Unhold",
}

// closers is the reverse index.
var closers = map[string]string{
	"Enter":  "Prepare",
	"Unhold": "Hold",
}

// eventTypeName is the named type whose constants are lifecycle events.
// Matching by type name rather than by import path keeps fixtures
// self-contained while never misfiring in the real tree: core.EventType is
// the only such type in the module.
const eventTypeName = "EventType"

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
		// Function literals get the same treatment, independently.
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkBody(pass, fl.Body)
			}
			return true
		})
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	checkBody(pass, fd.Body)
}

// eventCall is one recognized event emission.
type eventCall struct {
	key   string // pairing key: callee + non-event args
	event string // Prepare | Enter | Hold | Unhold
	pos   token.Pos
}

// checkBody runs the pairing analysis over one function body. Nested
// function literals are skipped here (they are analyzed as their own
// bodies): an event emitted in a deferred or spawned closure belongs to
// that closure's control flow.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// First sweep: which pairing keys have both sides present?
	opened := map[string]map[string]bool{} // key → set of events seen
	inspectSkipFuncLits(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, ec := range expand(pass, call) {
				if opened[ec.key] == nil {
					opened[ec.key] = map[string]bool{}
				}
				opened[ec.key][ec.event] = true
			}
		}
	})
	enforced := map[string]bool{} // key|opener → enforce all-paths pairing
	for key, evs := range opened {
		for opener, closer := range pairs {
			if evs[opener] && evs[closer] {
				enforced[key+"|"+opener] = true
			}
		}
	}
	if len(enforced) == 0 {
		return
	}
	w := &walker{pass: pass, enforced: enforced}
	open := map[string]token.Pos{}
	exit, terminated := w.block(body.List, open)
	if !terminated {
		w.flagOpen(w.atExit(exit), "function returns")
	}
}

// classify recognizes a call that passes a lifecycle-event constant and
// derives its pairing key.
func classify(info *types.Info, call *ast.CallExpr) (eventCall, bool) {
	return classifyWith(info, call, nil)
}

// classifyWith is classify with an identifier resolver threaded into the key
// rendering — the summary builder substitutes placeholders for the enclosing
// function's parameters.
func classifyWith(info *types.Info, call *ast.CallExpr, resolve func(*ast.Ident) (string, bool)) (eventCall, bool) {
	eventIdx := -1
	var event string
	for i, arg := range call.Args {
		name, ok := eventConst(info, arg)
		if !ok {
			continue
		}
		if _, opener := pairs[name]; !opener {
			if _, closer := closers[name]; !closer {
				continue
			}
		}
		eventIdx, event = i, name
		break
	}
	if eventIdx < 0 {
		return eventCall{}, false
	}
	key := renderWith(call.Fun, resolve)
	for i, arg := range call.Args {
		if i == eventIdx {
			continue
		}
		key += "," + renderWith(arg, resolve)
	}
	return eventCall{key: key, event: event, pos: call.Pos()}, true
}

// eventConst reports whether expr is a constant of the EventType named type
// and returns its declared name.
func eventConst(info *types.Info, expr ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := expr.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok {
		return "", false
	}
	named, ok := c.Type().(*types.Named)
	if !ok || named.Obj().Name() != eventTypeName {
		return "", false
	}
	return c.Name(), true
}

// render produces a stable textual form of an expression for pairing keys.
func render(e ast.Expr) string { return renderWith(e, nil) }

// renderWith renders an expression, diverting identifiers through resolve
// first (used to stamp parameter placeholders into summary templates).
func renderWith(e ast.Expr, resolve func(*ast.Ident) (string, bool)) string {
	switch x := e.(type) {
	case *ast.Ident:
		if resolve != nil {
			if s, ok := resolve(x); ok {
				return s
			}
		}
		return x.Name
	case *ast.SelectorExpr:
		return renderWith(x.X, resolve) + "." + x.Sel.Name
	case *ast.CallExpr:
		s := renderWith(x.Fun, resolve) + "("
		for i, a := range x.Args {
			if i > 0 {
				s += ","
			}
			s += renderWith(a, resolve)
		}
		return s + ")"
	case *ast.IndexExpr:
		return renderWith(x.X, resolve) + "[" + renderWith(x.Index, resolve) + "]"
	case *ast.BasicLit:
		return x.Value
	case *ast.UnaryExpr:
		return x.Op.String() + renderWith(x.X, resolve)
	case *ast.StarExpr:
		return "*" + renderWith(x.X, resolve)
	case *ast.ParenExpr:
		return renderWith(x.X, resolve)
	default:
		return fmt.Sprintf("<%T>", e)
	}
}

// emission is one summarized unconditional event call of a program function:
// the event name plus a pairing-key template in which references to the
// function's own parameters appear as placeholders.
type emission struct {
	event string
	key   string
}

// placeholder is the template token for parameter i. NUL bytes cannot occur
// in rendered source text, so substitution is collision-free.
func placeholder(i int) string {
	return "\x00" + fmt.Sprint(i) + "\x00"
}

// emissionSummaries computes (once per program, cached) each function's
// unconditional emissions. Bottom-up over the SCCs so a helper that wraps
// another helper composes; callees inside the same (recursive) component are
// skipped — their summaries are not final, and dropping them only loses
// events, never invents them.
func emissionSummaries(prog *program.Program) map[*program.Func][]emission {
	return prog.Cache("eventpair.emissions", func() any {
		sums := make(map[*program.Func][]emission)
		done := make(map[*program.Func]bool)
		for _, scc := range prog.SCCs() {
			for _, fn := range scc {
				if ems := summarize(prog, fn, sums, done); len(ems) > 0 {
					sums[fn] = ems
				}
			}
			for _, fn := range scc {
				done[fn] = true
			}
		}
		return sums
	}).(map[*program.Func][]emission)
}

// summarize scans fn's top-level statements for event calls and calls to
// already-summarized helpers. The scan stops at the first statement that is
// neither an expression-statement call nor a defer: anything else (an if, a
// loop, an early return) could make later emissions conditional, and the
// summary must only promise events that happen on every path.
func summarize(prog *program.Program, fn *program.Func, sums map[*program.Func][]emission, done map[*program.Func]bool) []emission {
	info := fn.Pkg.Info
	params := program.ParamObjects(fn)
	paramIdx := make(map[*types.Var]int, len(params))
	for i, v := range params {
		paramIdx[v] = i
	}
	resolve := func(id *ast.Ident) (string, bool) {
		if i, ok := paramIdx[program.VarOf(info, id)]; ok {
			return placeholder(i), true
		}
		return "", false
	}

	var out []emission
	addCall := func(call *ast.CallExpr) {
		if ec, ok := classifyWith(info, call, resolve); ok {
			out = append(out, emission{event: ec.event, key: ec.key})
			return
		}
		callee := prog.Callee(info, call)
		if callee == nil || !done[callee] || len(sums[callee]) == 0 {
			return
		}
		// Inline the helper's summary, substituting its placeholders with
		// this call's arguments rendered in fn's own template language —
		// composition keeps fn's parameters as placeholders.
		args := program.CallArgExprs(info, call, callee)
		for _, em := range sums[callee] {
			key := em.key
			ok := true
			for i, arg := range args {
				if !strings.Contains(key, placeholder(i)) {
					continue
				}
				if arg == nil {
					ok = false
					break
				}
				key = strings.ReplaceAll(key, placeholder(i), renderWith(arg, resolve))
			}
			if ok {
				out = append(out, emission{event: em.event, key: key})
			}
		}
	}

	for _, s := range fn.Decl.Body.List {
		switch x := s.(type) {
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok {
				addCall(call)
				continue
			}
		case *ast.DeferStmt:
			// A defer directly in the body runs by the time fn returns, so
			// from the caller's view it is as unconditional as a plain call.
			addCall(x.Call)
			continue
		}
		break
	}
	return out
}

// expand returns the event calls a call expression performs: its own
// classification, or — when the callee is a program function with a
// nonempty emission summary — the summarized events with this call's
// arguments substituted into the pairing keys and positions anchored at the
// call site.
func expand(pass *analysis.Pass, call *ast.CallExpr) []eventCall {
	if ec, ok := classify(pass.TypesInfo, call); ok {
		return []eventCall{ec}
	}
	if pass.Prog == nil {
		return nil
	}
	callee := pass.Prog.Callee(pass.TypesInfo, call)
	if callee == nil {
		return nil
	}
	sums := emissionSummaries(pass.Prog)[callee]
	if len(sums) == 0 {
		return nil
	}
	args := program.CallArgExprs(pass.TypesInfo, call, callee)
	out := make([]eventCall, 0, len(sums))
	for _, em := range sums {
		key := em.key
		ok := true
		for i, arg := range args {
			if !strings.Contains(key, placeholder(i)) {
				continue
			}
			if arg == nil {
				ok = false
				break
			}
			key = strings.ReplaceAll(key, placeholder(i), render(arg))
		}
		if ok {
			out = append(out, eventCall{key: key, event: em.event, pos: call.Pos()})
		}
	}
	return out
}

// walker tracks open (unclosed) enforced pairs along control-flow paths.
type walker struct {
	pass     *analysis.Pass
	enforced map[string]bool
	deferred []eventCall // closers emitted via defer — apply at every exit
	reported map[token.Pos]bool
}

func (w *walker) flagOpen(open map[string]token.Pos, how string) {
	for ek, pos := range open {
		if w.reported == nil {
			w.reported = map[token.Pos]bool{}
		}
		if w.reported[pos] {
			continue
		}
		// ek is key|opener.
		opener := ek[lastBar(ek)+1:]
		if w.reported[pos] {
			continue
		}
		w.reported[pos] = true
		w.pass.Reportf(pos, "%s emitted here is not matched by %s on every path (%s with the pair still open)",
			opener, pairs[opener], how)
	}
}

func lastBar(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '|' {
			return i
		}
	}
	return -1
}

// apply processes one event call against the open-set.
func (w *walker) apply(ec eventCall, open map[string]token.Pos) {
	if closer, ok := pairs[ec.event]; ok {
		_ = closer
		if w.enforced[ec.key+"|"+ec.event] {
			open[ec.key+"|"+ec.event] = ec.pos
		}
		return
	}
	if opener, ok := closers[ec.event]; ok {
		delete(open, ec.key+"|"+opener)
	}
}

// exprEvents applies every event call inside an expression, skipping nested
// function literals.
func (w *walker) exprEvents(e ast.Expr, open map[string]token.Pos) {
	if e == nil {
		return
	}
	inspectSkipFuncLits(e, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, ec := range expand(w.pass, call) {
				w.apply(ec, open)
			}
		}
	})
}

// atExit returns the open-set at a function exit after deferred closers run.
func (w *walker) atExit(open map[string]token.Pos) map[string]token.Pos {
	out := clonePos(open)
	for _, ec := range w.deferred {
		w.apply(ec, out)
	}
	return out
}

func clonePos(m map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// mergeOpen unions two open-sets: a pair open on either incoming path is
// open after the join.
func mergeOpen(a, b map[string]token.Pos) map[string]token.Pos {
	u := clonePos(a)
	for k, v := range b {
		if _, ok := u[k]; !ok {
			u[k] = v
		}
	}
	return u
}

// block interprets a statement list; reports at each return. The returned
// bool is true when every path terminates before falling off the end.
func (w *walker) block(stmts []ast.Stmt, open map[string]token.Pos) (map[string]token.Pos, bool) {
	for _, s := range stmts {
		var terminated bool
		open, terminated = w.stmt(s, open)
		if terminated {
			return open, true
		}
	}
	return open, false
}

func (w *walker) stmt(s ast.Stmt, open map[string]token.Pos) (map[string]token.Pos, bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		w.exprEvents(x.X, open)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			w.exprEvents(e, open)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.exprEvents(v, open)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// defer emit(Unhold) — the closer runs at every subsequent exit.
		if ec, ok := classify(w.pass.TypesInfo, x.Call); ok {
			w.deferred = append(w.deferred, ec)
			return open, false
		}
		// defer func(){ emit(Unhold) }() — closers inside count the same
		// way; openers inside a deferred closure are its own business.
		if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
			inspectSkipFuncLits(fl.Body, func(n ast.Node) {
				if call, ok := n.(*ast.CallExpr); ok {
					for _, ec := range expand(w.pass, call) {
						if _, isCloser := closers[ec.event]; isCloser {
							w.deferred = append(w.deferred, ec)
						}
					}
				}
			})
			return open, false
		}
		// defer helper() where helper has an emission summary: its closers
		// run at every subsequent exit, like a direct deferred closer.
		for _, ec := range expand(w.pass, x.Call) {
			if _, isCloser := closers[ec.event]; isCloser {
				w.deferred = append(w.deferred, ec)
			}
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			w.exprEvents(e, open)
		}
		w.flagOpen(w.atExit(open), "returns")
		return open, true
	case *ast.BranchStmt:
		// goto/break/continue: approximate by stopping the path without an
		// exit check — the loop-level merge covers the common shapes.
		if x.Tok == token.BREAK || x.Tok == token.CONTINUE || x.Tok == token.GOTO {
			return open, true
		}
	case *ast.IfStmt:
		if x.Init != nil {
			open, _ = w.stmt(x.Init, open)
		}
		w.exprEvents(x.Cond, open)
		thenO, thenT := w.block(x.Body.List, clonePos(open))
		elseO, elseT := open, false
		if x.Else != nil {
			switch e := x.Else.(type) {
			case *ast.BlockStmt:
				elseO, elseT = w.block(e.List, clonePos(open))
			case *ast.IfStmt:
				elseO, elseT = w.stmt(e, clonePos(open))
			}
		}
		switch {
		case thenT && elseT:
			return open, true
		case thenT:
			return elseO, false
		case elseT:
			return thenO, false
		default:
			return mergeOpen(thenO, elseO), false
		}
	case *ast.BlockStmt:
		return w.block(x.List, open)
	case *ast.ForStmt:
		if x.Init != nil {
			open, _ = w.stmt(x.Init, open)
		}
		w.exprEvents(x.Cond, open)
		bodyO, _ := w.block(x.Body.List, clonePos(open))
		if x.Cond == nil && !hasBreak(x.Body) {
			// for{} with no exit: control never falls through. The returns
			// inside the body were already checked.
			return open, true
		}
		return mergeOpen(open, bodyO), false
	case *ast.RangeStmt:
		w.exprEvents(x.X, open)
		bodyO, _ := w.block(x.Body.List, clonePos(open))
		return mergeOpen(open, bodyO), false
	case *ast.SwitchStmt:
		if x.Init != nil {
			open, _ = w.stmt(x.Init, open)
		}
		w.exprEvents(x.Tag, open)
		return w.caseBodies(x.Body, open, hasDefault(x.Body))
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			open, _ = w.stmt(x.Init, open)
		}
		return w.caseBodies(x.Body, open, hasDefault(x.Body))
	case *ast.SelectStmt:
		return w.caseBodies(x.Body, open, true)
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, open)
	case *ast.GoStmt:
		if _, ok := x.Call.Fun.(*ast.FuncLit); !ok {
			w.exprEvents(x.Call, open)
		}
	case *ast.SendStmt:
		w.exprEvents(x.Value, open)
	}
	return open, false
}

// caseBodies merges clause bodies; exhaustive reports whether a default
// clause guarantees one body runs.
func (w *walker) caseBodies(body *ast.BlockStmt, open map[string]token.Pos, exhaustive bool) (map[string]token.Pos, bool) {
	var out map[string]token.Pos
	if !exhaustive {
		out = clonePos(open)
	}
	allTerminated := true
	for _, cs := range body.List {
		var stmts []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.exprEvents(e, open)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.stmt(c.Comm, clonePos(open))
			}
			stmts = c.Body
		}
		co, terminated := w.block(stmts, clonePos(open))
		if !terminated {
			allTerminated = false
			if out == nil {
				out = co
			} else {
				out = mergeOpen(out, co)
			}
		}
	}
	if exhaustive && allTerminated && len(body.List) > 0 {
		return open, true
	}
	if out == nil {
		out = clonePos(open)
	}
	return out, false
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, cs := range body.List {
		if c, ok := cs.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
		if c, ok := cs.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}

// hasBreak reports whether a block contains a break that would exit the
// enclosing for statement (not one belonging to a nested loop or switch).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BranchStmt:
			if x.Tok == token.BREAK {
				found = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false // breaks inside bind to the inner statement
		}
		return true
	}
	for _, s := range body.List {
		ast.Inspect(s, walk)
	}
	return found
}

// inspectSkipFuncLits walks n, calling fn on every node outside nested
// function literals.
func inspectSkipFuncLits(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		fn(m)
		return true
	})
}
