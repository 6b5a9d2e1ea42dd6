// The path interpreter: the one statement walker of the path-sensitive
// passes. A pass tracks a set of facts along each control-flow path of a
// function body (the lock classes held, the event pairs left open) and
// supplies three hooks: what a call does to the facts, what a defer
// records, and what an exit checks. The interpreter owns the control flow:
// branches join by union, loops run to their back edge twice, break and
// continue carry their facts to the statement they leave, and every
// function literal is a body of its own.
package program

import (
	"go/ast"
	"go/token"
)

// Facts is the fact set on one path: each fact with the position that
// established it. Paths join by union; where both hold a fact, the
// position of the first path named in the join is kept.
type Facts[K comparable] map[K]token.Pos

func (f Facts[K]) clone() Facts[K] {
	c := make(Facts[K], len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

// join returns a ∪ b as a new set. A nil set is a point no path reaches,
// and the join of two such is nil too.
func join[K comparable](a, b Facts[K]) Facts[K] {
	if a == nil && b == nil {
		return nil
	}
	u := a.clone()
	for k, v := range b {
		if _, ok := u[k]; !ok {
			u[k] = v
		}
	}
	return u
}

// Paths are a pass's hooks into Interpret. Each may change the facts it is
// handed, which are that path's own.
type Paths[K comparable] struct {
	// Entry, when set, is the fact set a body starts from; it is copied,
	// never changed.
	Entry Facts[K]
	// Call applies one call a path evaluates. The calls of an expression
	// come in ast.Inspect order; calls inside function literals do not
	// come (a literal is interpreted as its own body).
	Call func(call *ast.CallExpr, facts Facts[K])
	// Defer, when set, sees each defer statement with the facts that
	// reach it. The deferred call's arguments are not evaluated.
	Defer func(d *ast.DeferStmt, facts Facts[K])
	// Exit, when set, sees the facts at each return, after its results
	// (ret is the return), and at the end of a body that control can fall
	// off (ret is nil).
	Exit func(facts Facts[K], ret *ast.ReturnStmt)
}

// EachBody calls fn on every function body in files: each declared
// function's, and each function literal's at any depth, once.
func EachBody(files []*ast.File, fn func(body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil {
					fn(x.Body)
				}
			case *ast.FuncLit:
				fn(x.Body)
			}
			return true
		})
	}
}

// Calls calls fn on every call in n, in ast.Inspect order, outside
// function literals.
func Calls(n ast.Node, fn func(*ast.CallExpr)) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn(x)
		}
		return true
	})
}

// ReportOnce wraps a report function so each position is reported once:
// Interpret visits a loop body twice and a return once per path reaching it.
func ReportOnce(report func(token.Pos, string, ...any)) func(token.Pos, string, ...any) {
	seen := map[token.Pos]bool{}
	return func(pos token.Pos, format string, args ...any) {
		if !seen[pos] {
			seen[pos] = true
			report(pos, format, args...)
		}
	}
}

// Interpret runs p's hooks along every path through body from p.Entry
// (empty when unset). The rules:
//   - an if joins its arms; a switch without a default clause also joins
//     the state it was entered with, while a switch with one, and a select,
//     do not, and end the path when every clause does;
//   - a loop body runs twice, from the entry facts and then from entry ∪
//     back edge, where continue joins the back edge; the loop exits with
//     entry ∪ back edge ∪ its breaks, and a for without a condition only
//     by break;
//   - break joins the exit of the loop, switch or select it leaves, by label
//     or innermost; fallthrough joins the next clause's entry; goto and
//     return end the path.
func Interpret[K comparable](body *ast.BlockStmt, p Paths[K]) {
	in := &interp[K]{Paths: p}
	if end := in.block(body.List, p.Entry.clone()); end != nil && p.Exit != nil {
		p.Exit(end, nil)
	}
}

type interp[K comparable] struct {
	Paths[K]
	targets []*target[K] // the enclosing break targets, innermost last
	label   string       // the label of the statement about to run
}

// target is a statement break can leave, with the facts its breaks (and,
// for a loop, its continues) carry.
type target[K comparable] struct {
	label        string
	loop         bool
	breaks, next Facts[K]
}

func (in *interp[K]) expr(e ast.Node, f Facts[K]) {
	if e != nil {
		Calls(e, func(call *ast.CallExpr) { in.Call(call, f) })
	}
}

// push opens a break target.
func (in *interp[K]) push(loop bool, label string) *target[K] {
	t := &target[K]{label: label, loop: loop}
	in.targets = append(in.targets, t)
	return t
}

func (in *interp[K]) pop() { in.targets = in.targets[:len(in.targets)-1] }

// branch joins f into the target of a break or continue. Code the type
// checker accepts always has one.
func (in *interp[K]) branch(x *ast.BranchStmt, f Facts[K]) {
	for i := len(in.targets) - 1; i >= 0; i-- {
		t := in.targets[i]
		if x.Label != nil && x.Label.Name != t.label || x.Tok == token.CONTINUE && !t.loop {
			continue
		}
		if x.Tok == token.BREAK {
			t.breaks = join(t.breaks, f)
		} else {
			t.next = join(t.next, f)
		}
		return
	}
}

// block interprets a statement list; the result is nil when no path
// falls off its end.
func (in *interp[K]) block(stmts []ast.Stmt, f Facts[K]) Facts[K] {
	for _, s := range stmts {
		if f = in.stmt(s, f); f == nil {
			return nil
		}
	}
	return f
}

func (in *interp[K]) stmt(s ast.Stmt, f Facts[K]) Facts[K] {
	label := in.label
	in.label = ""
	switch x := s.(type) {
	case *ast.ExprStmt:
		in.expr(x.X, f)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			in.expr(e, f)
		}
		for _, e := range x.Lhs {
			in.expr(e, f)
		}
	case *ast.IncDecStmt:
		in.expr(x.X, f)
	case *ast.SendStmt:
		in.expr(x.Chan, f)
		in.expr(x.Value, f)
	case *ast.GoStmt:
		// The function value and the arguments are evaluated here; the call
		// runs on its own goroutine.
		in.expr(x.Call.Fun, f)
		for _, e := range x.Call.Args {
			in.expr(e, f)
		}
	case *ast.DeclStmt:
		in.expr(x.Decl, f)
	case *ast.DeferStmt:
		if in.Defer != nil {
			in.Defer(x, f)
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			in.expr(e, f)
		}
		if in.Exit != nil {
			in.Exit(f, x)
		}
		return nil
	case *ast.BranchStmt:
		switch x.Tok {
		case token.FALLTHROUGH:
			return f
		case token.BREAK, token.CONTINUE:
			in.branch(x, f)
		}
		return nil
	case *ast.LabeledStmt:
		in.label = x.Label.Name
		return in.stmt(x.Stmt, f)
	case *ast.BlockStmt:
		return in.block(x.List, f)
	case *ast.IfStmt:
		if x.Init != nil {
			f = in.stmt(x.Init, f)
		}
		in.expr(x.Cond, f)
		then := in.block(x.Body.List, f.clone())
		if x.Else != nil {
			f = in.stmt(x.Else, f.clone())
		}
		return join(then, f)
	case *ast.ForStmt:
		if x.Init != nil {
			f = in.stmt(x.Init, f)
		}
		return in.loop(label, x.Cond, x.Body, x.Post, x.Cond != nil, f)
	case *ast.RangeStmt:
		in.expr(x.X, f)
		return in.loop(label, nil, x.Body, nil, true, f)
	case *ast.SwitchStmt:
		if x.Init != nil {
			f = in.stmt(x.Init, f)
		}
		in.expr(x.Tag, f)
		return in.clauses(label, x.Body, false, f)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			f = in.stmt(x.Init, f)
		}
		f = in.stmt(x.Assign, f)
		return in.clauses(label, x.Body, false, f)
	case *ast.SelectStmt:
		return in.clauses(label, x.Body, true, f)
	}
	return f
}

// loop interprets a for or range statement entered with f: cond runs at
// the head of each pass, post at the end of each, and exits says whether
// the loop can leave other than by break.
func (in *interp[K]) loop(label string, cond ast.Expr, body *ast.BlockStmt, post ast.Stmt, exits bool, f Facts[K]) Facts[K] {
	t := in.push(true, label)
	defer in.pop()
	var head, back Facts[K]
	for pass := 0; pass < 2; pass++ {
		head = join(f, back)
		in.expr(cond, head)
		back = join(in.block(body.List, head.clone()), t.next)
		t.next = nil
		if back != nil && post != nil {
			back = in.stmt(post, back)
		}
	}
	if !exits {
		return t.breaks
	}
	return join(join(head, back), t.breaks)
}

// clauses interprets the clauses of a switch or select; exhaustive is set
// for a select, and a default clause sets it for a switch. A case clause's
// expressions run in the entered state, and its body from what they leave;
// a comm clause's statement runs at the head of its body.
func (in *interp[K]) clauses(label string, body *ast.BlockStmt, exhaustive bool, f Facts[K]) Facts[K] {
	t := in.push(false, label)
	defer in.pop()
	var out, fall Facts[K]
	for _, cs := range body.List {
		var start Facts[K]
		var stmts []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				in.expr(e, f)
			}
			exhaustive = exhaustive || c.List == nil
			start, stmts = join(f, fall), c.Body
		case *ast.CommClause:
			start, stmts = f.clone(), c.Body
			if c.Comm != nil {
				start = in.stmt(c.Comm, start)
			}
		}
		end := in.block(stmts, start)
		fall = nil
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fall = end
				continue
			}
		}
		out = join(out, end)
	}
	if !exhaustive {
		out = join(f, out)
	}
	return join(out, t.breaks)
}
