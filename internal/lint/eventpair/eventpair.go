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
// reached on every path that leaves the function, honoring defers. The
// paths are program.Interpret's (DESIGN.md §14): a break or continue carries
// the open pairs out of the loop, a switch with a default clause and a
// select end a path when every clause does, and a function literal is a
// body of its own.
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
	"sort"
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
	sums := emissionSummaries(pass.Prog)
	reportf := program.ReportOnce(pass.Reportf)
	program.EachBody(pass.Files, func(body *ast.BlockStmt) {
		checkBody(pass, body, sums, reportf)
	})
	return nil, nil
}

// eventCall is one recognized event emission.
type eventCall struct {
	key   string // pairing key: callee + non-event args
	event string // Prepare | Enter | Hold | Unhold
	pos   token.Pos
}

// pair is one enforced pairing: a key and its opener.
type pair struct{ key, opener string }

// checkBody runs the pairing analysis over one function body. Nested
// function literals are bodies of their own: an event emitted in a deferred
// or spawned closure belongs to that closure's control flow.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, sums map[*program.Func][]eventCall, reportf func(token.Pos, string, ...any)) {
	expand := func(call *ast.CallExpr) []eventCall {
		return emissions(pass.Prog, pass.TypesInfo, call, sums, nil)
	}
	// First sweep: which pairing keys have both sides present?
	seen := map[string]map[string]bool{} // key → set of events seen
	program.Calls(body, func(call *ast.CallExpr) {
		for _, ec := range expand(call) {
			if seen[ec.key] == nil {
				seen[ec.key] = map[string]bool{}
			}
			seen[ec.key][ec.event] = true
		}
	})
	enforced := map[pair]bool{}
	for key, evs := range seen {
		for opener, closer := range pairs {
			if evs[opener] && evs[closer] {
				enforced[pair{key, opener}] = true
			}
		}
	}
	if len(enforced) == 0 {
		return
	}
	apply := func(ec eventCall, open program.Facts[pair]) {
		if _, ok := pairs[ec.event]; ok {
			if p := (pair{ec.key, ec.event}); enforced[p] {
				open[p] = ec.pos
			}
		} else {
			delete(open, pair{ec.key, closers[ec.event]})
		}
	}
	var deferred []eventCall // the events of the defers passed so far: they run at every later exit
	program.Interpret(body, program.Paths[pair]{
		Call: func(call *ast.CallExpr, open program.Facts[pair]) {
			for _, ec := range expand(call) {
				apply(ec, open)
			}
		},
		Defer: func(d *ast.DeferStmt, _ program.Facts[pair]) {
			// defer func(){ emit(Unhold) }(): the closers inside run at
			// exit; openers inside a deferred closure are its own business.
			if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
				program.Calls(fl.Body, func(call *ast.CallExpr) {
					for _, ec := range expand(call) {
						if _, isCloser := closers[ec.event]; isCloser {
							deferred = append(deferred, ec)
						}
					}
				})
				return
			}
			// defer emit(Unhold), or a helper with an emission summary:
			// all its events run at exit.
			deferred = append(deferred, expand(d.Call)...)
		},
		Exit: func(open program.Facts[pair], ret *ast.ReturnStmt) {
			for i := len(deferred) - 1; i >= 0; i-- { // defers run last first
				apply(deferred[i], open)
			}
			how := "function returns"
			if ret != nil {
				how = "returns"
			}
			still := make([]pair, 0, len(open))
			for p := range open {
				still = append(still, p)
			}
			sort.Slice(still, func(i, j int) bool {
				if still[i].opener != still[j].opener {
					return still[i].opener < still[j].opener
				}
				return still[i].key < still[j].key
			})
			for _, p := range still {
				reportf(open[p], "%s emitted here is not matched by %s on every path (%s with the pair still open)",
					p.opener, pairs[p.opener], how)
			}
		},
	})
}

// classify recognizes a call that passes a lifecycle-event constant and
// derives its pairing key, rendering identifiers through resolve (the
// summary builder substitutes placeholders for the enclosing function's
// parameters).
func classify(info *types.Info, call *ast.CallExpr, resolve func(*ast.Ident) (string, bool)) (eventCall, bool) {
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
	key := render(call.Fun, resolve)
	for i, arg := range call.Args {
		if i == eventIdx {
			continue
		}
		key += "," + render(arg, resolve)
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

// render produces a stable textual form of an expression for pairing keys,
// diverting identifiers through resolve first when it is set.
func render(e ast.Expr, resolve func(*ast.Ident) (string, bool)) string {
	switch x := e.(type) {
	case *ast.Ident:
		if resolve != nil {
			if s, ok := resolve(x); ok {
				return s
			}
		}
		return x.Name
	case *ast.SelectorExpr:
		return render(x.X, resolve) + "." + x.Sel.Name
	case *ast.CallExpr:
		s := render(x.Fun, resolve) + "("
		for i, a := range x.Args {
			if i > 0 {
				s += ","
			}
			s += render(a, resolve)
		}
		return s + ")"
	case *ast.IndexExpr:
		return render(x.X, resolve) + "[" + render(x.Index, resolve) + "]"
	case *ast.BasicLit:
		return x.Value
	case *ast.UnaryExpr:
		return x.Op.String() + render(x.X, resolve)
	case *ast.StarExpr:
		return "*" + render(x.X, resolve)
	case *ast.ParenExpr:
		return render(x.X, resolve)
	default:
		return fmt.Sprintf("<%T>", e)
	}
}

// placeholder is the template token for parameter i. NUL bytes cannot occur
// in rendered source text, so substitution is collision-free.
func placeholder(i int) string {
	return "\x00" + fmt.Sprint(i) + "\x00"
}

// emissionSummaries computes (once per program, cached) each function's
// unconditional emissions, pairing keys being templates in which the
// function's own parameters appear as placeholders. Bottom-up over the SCCs
// so a helper that wraps another helper composes; a component's summaries
// are published after the whole component, so a callee inside the same
// (recursive) component is skipped — its summary is not final, and dropping
// it only loses events, never invents them.
func emissionSummaries(prog *program.Program) map[*program.Func][]eventCall {
	return prog.Cache("eventpair.emissions", func() any {
		sums := make(map[*program.Func][]eventCall)
		for _, scc := range prog.SCCs() {
			done := make(map[*program.Func][]eventCall)
			for _, fn := range scc {
				if ems := summarize(prog, fn, sums); len(ems) > 0 {
					done[fn] = ems
				}
			}
			for fn, ems := range done {
				sums[fn] = ems
			}
		}
		return sums
	}).(map[*program.Func][]eventCall)
}

// summarize scans fn's top-level statements for event calls and calls to
// already-summarized helpers. The scan stops at the first statement that is
// neither an expression-statement call nor a defer: anything else (an if, a
// loop, an early return) could make later emissions conditional, and the
// summary must only promise events that happen on every path.
func summarize(prog *program.Program, fn *program.Func, sums map[*program.Func][]eventCall) []eventCall {
	info := fn.Pkg.Info
	paramIdx := make(map[*types.Var]int)
	for i, v := range program.ParamObjects(fn) {
		paramIdx[v] = i
	}
	resolve := func(id *ast.Ident) (string, bool) {
		if i, ok := paramIdx[program.VarOf(info, id)]; ok {
			return placeholder(i), true
		}
		return "", false
	}
	var out []eventCall
	for _, s := range fn.Decl.Body.List {
		var call *ast.CallExpr
		switch x := s.(type) {
		case *ast.ExprStmt:
			call, _ = x.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			// A defer directly in the body runs by the time fn returns, so
			// from the caller's view it is as unconditional as a plain call.
			call = x.Call
		}
		if call == nil {
			break
		}
		out = append(out, emissions(prog, info, call, sums, resolve)...)
	}
	return out
}

// emissions returns the event calls a call expression performs: its own
// classification, or — when the callee has a nonempty emission summary in
// sums — the summarized events with this call's arguments, rendered through
// resolve, substituted for the placeholders and positions anchored at the
// call site. An event whose placeholder has no argument is dropped.
func emissions(prog *program.Program, info *types.Info, call *ast.CallExpr, sums map[*program.Func][]eventCall, resolve func(*ast.Ident) (string, bool)) []eventCall {
	if ec, ok := classify(info, call, resolve); ok {
		return []eventCall{ec}
	}
	callee := prog.Callee(info, call)
	if len(sums[callee]) == 0 {
		return nil
	}
	args := program.CallArgExprs(info, call, callee)
	var out []eventCall
	for _, em := range sums[callee] {
		key, ok := em.key, true
		for i, arg := range args {
			if !strings.Contains(key, placeholder(i)) {
				continue
			}
			if arg == nil {
				ok = false
				break
			}
			key = strings.ReplaceAll(key, placeholder(i), render(arg, resolve))
		}
		if ok {
			out = append(out, eventCall{key: key, event: em.event, pos: call.Pos()})
		}
	}
	return out
}
