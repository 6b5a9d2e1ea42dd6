// Package lockorder statically enforces the manager's lock-acquisition
// order (DESIGN.md §8, extended by the §10 spool ranks and the §12 snapshot
// rank):
//
//	Manager.snap → eventSpool.mu → registry → pbox.mu → shard.mu →
//	verdictMu → leaves (actMu, penMu, shard.namesMu, traceStripe.mu,
//	traceRing.notifyMu)
//
// plus the extra rules: a shard lock is never held while acquiring the
// registry lock (subsumed by the rank order), at most one lock of a class
// is held at a time (no second eventSpool.mu, no second PBox.mu, no second
// shard.mu outside the index-ordered stop-the-world sweep, no two actMus, no
// second traceStripe.mu outside the trace reader's index-ordered sweep), and
// leaves are
// terminal — nothing is acquired while holding a leaf, which subsumes "no
// leaf is held while acquiring verdictMu".
//
// The pass extracts the static lock graph: every Lock/RLock/Unlock/RUnlock
// call on a sync.Mutex or sync.RWMutex field is classified by the named
// type that owns the field (eventSpool.mu, Manager.reg,
// PBox.mu, shard.mu, Manager.verdictMu, PBox.actMu, PBox.penMu,
// shard.namesMu, traceStripe.mu, traceRing.notifyMu).
// A linear abstract interpretation tracks the held-set through each
// function body (branches merge by union, early returns leave the merge),
// and a whole-program fixpoint over the call graph (SCC-ordered, DESIGN.md
// §14) summarizes which classes each function may acquire — directly or
// through calls that cross package boundaries — so a call made while holding
// pbox.mu is checked against everything the callee transitively locks, and a
// telemetry or capture helper that re-enters internal/core under a lock is
// seen from its caller. A helper that returns holding a lock it took, or
// releases one its caller took (lockShard; the verdict section's enter/leave
// pair), moves the caller's held-set like the Lock or Unlock it stands for
// (handoffs), so the calls between the pair are checked against verdictMu.
// Unknown mutexes (types outside the configured table) are ignored: the
// order is a contract between the manager's own locks.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"pbox/internal/lint/analysis"
	"pbox/internal/lint/program"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "enforce the DESIGN.md §8 lock order of the manager " +
		"(registry → pbox.mu → shard.mu → verdictMu → leaves)",
	Run: run,
}

// Rank positions in the documented order. Leaves share leafRank and are
// terminal. The spool rank is negative: a flush precedes everything its
// replay acquires, and nothing may start one while holding any manager lock.
// The snapshot build mutex ranks before all of them: a rebuild flushes every
// hinted spool and then takes the whole read path under it.
const (
	rankSnap       = -30
	rankSpoolFlush = -20
	rankRegistry   = 0
	rankPBoxMu     = 10
	rankShardMu    = 20
	rankVerdict    = 30
	leafRank       = 40
)

// LockTable is the §8 order, keyed by owner.field: the named type in
// internal/core that declares the mutex field, and the field. Fixture
// packages declaring types and fields of the same names are ranked
// identically, which is what the golden tests exercise.
var LockTable = map[string]int{
	"Manager.snap":       rankSnap,
	"eventSpool.mu":      rankSpoolFlush,
	"Manager.reg":        rankRegistry,
	"PBox.mu":            rankPBoxMu,
	"shard.mu":           rankShardMu,
	"Manager.verdictMu":  rankVerdict,
	"PBox.actMu":         leafRank,
	"PBox.penMu":         leafRank,
	"shard.namesMu":      leafRank,
	"traceStripe.mu":     leafRank,
	"traceRing.notifyMu": leafRank,
}

// orderDoc is appended to order-violation messages.
const orderDoc = "DESIGN.md §8/§10/§12 order: snap → eventSpool.mu → registry → pbox.mu → shard.mu → verdictMu → leaves"

// lockClass is one recognized lock class.
type lockClass struct {
	name string // owner.field, a LockTable key
	rank int
}

func (c lockClass) String() string { return c.name }
func (c lockClass) leaf() bool     { return c.rank >= leafRank }

// lockOp is a classified Lock/Unlock call.
type lockOp struct {
	class   lockClass
	acquire bool // Lock/RLock vs Unlock/RUnlock
}

func run(pass *analysis.Pass) (any, error) {
	st := &state{
		pass:      pass,
		info:      pass.TypesInfo,
		summaries: program.Summaries(pass.Prog, acquisitions),
		handoffs:  handoffs(pass.Prog),
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{st: st}
			w.block(fd.Body.List, newHeld())
			for _, fl := range w.funcLits {
				inner := &walker{st: st}
				inner.block(fl.Body.List, newHeld())
			}
		}
	}
	return nil, nil
}

// state is the per-package walking state: the shared whole-program
// acquisition summaries plus the current package's type information (lock
// calls in this package's files resolve through it).
type state struct {
	pass      *analysis.Pass
	info      *types.Info
	summaries map[*program.Func]map[lockClass]bool
	handoffs  map[*program.Func]map[lockClass]bool
}

// handoffs computes — once per program, cached — the lock classes a function
// hands across its own boundary: true for a class it locks and nowhere
// unlocks (it returns holding it: lockShard, enterVerdict), false for one it
// unlocks and nowhere locks (it releases its caller's: leaveVerdict). A call
// to such a function moves the caller's held-set as the Lock or Unlock would
// have in its place, so what runs between the two is checked against the lock.
func handoffs(prog *program.Program) map[*program.Func]map[lockClass]bool {
	return prog.Cache("lockorder.handoffs", func() any {
		out := make(map[*program.Func]map[lockClass]bool)
		for _, fn := range prog.Funcs() {
			// Which sides of each class fn's own body takes.
			type sides struct{ locks, unlocks bool }
			ops := make(map[lockClass]sides)
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if op, ok := classifyLockCall(fn.Pkg.Info, call); ok {
						s := ops[op.class]
						s.locks = s.locks || op.acquire
						s.unlocks = s.unlocks || !op.acquire
						ops[op.class] = s
					}
				}
				return true
			})
			for c, s := range ops {
				if s.locks != s.unlocks {
					if out[fn] == nil {
						out[fn] = make(map[lockClass]bool)
					}
					out[fn][c] = s.locks
				}
			}
		}
		return out
	}).(map[*program.Func]map[lockClass]bool)
}

// acquisitions is the property behind the call checks: the lock classes a
// function's static call closure may acquire, across package boundaries.
var acquisitions = program.Property[lockClass]{
	Key: "lockorder.acquisitions",
	Direct: func(info *types.Info, call *ast.CallExpr) (lockClass, bool) {
		op, ok := classifyLockCall(info, call)
		return op.class, ok && op.acquire
	},
}

// callee resolves a call to a program function with a known summary, or nil.
func (st *state) callee(call *ast.CallExpr) *program.Func {
	return st.pass.Prog.Callee(st.info, call)
}

// classifyLockCall recognizes a Lock/Unlock-family call on a configured
// lock class, resolving names through the type info of the package the
// call appears in. Mutexes outside the table are not classified.
func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	owner, field, acquire, ok := program.MutexCall(info, call)
	if !ok {
		return lockOp{}, false
	}
	name := owner + "." + field
	rank, ok := LockTable[name]
	if !ok {
		return lockOp{}, false
	}
	return lockOp{class: lockClass{name: name, rank: rank}, acquire: acquire}, true
}

// held is the abstract held-set: class → first acquisition position.
type held map[lockClass]token.Pos

func newHeld() held { return make(held) }

func (h held) clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (h held) union(o held) held {
	u := h.clone()
	for k, v := range o {
		if _, ok := u[k]; !ok {
			u[k] = v
		}
	}
	return u
}

// walker interprets one function body.
type walker struct {
	st       *state
	funcLits []*ast.FuncLit
	reported map[token.Pos]bool
}

func (w *walker) reportOnce(pos token.Pos, format string, args ...any) {
	if w.reported == nil {
		w.reported = make(map[token.Pos]bool)
	}
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.st.pass.Reportf(pos, format, args...)
}

// checkAcquire validates acquiring class c while h is held.
func (w *walker) checkAcquire(pos token.Pos, c lockClass, h held, via string) {
	for hc := range h {
		switch {
		case hc == c:
			w.reportOnce(pos, "%sacquires %s while a %s is already held (%s)",
				via, c, hc, "at most one lock of a class may be held")
		case hc.leaf():
			w.reportOnce(pos, "%sacquires %s while holding leaf lock %s (leaves are terminal: nothing may be acquired under them)",
				via, c, hc)
		case c.rank < hc.rank:
			w.reportOnce(pos, "%sacquires %s while holding %s, against the order (%s)",
				via, c, hc, orderDoc)
		}
	}
}

// exprCalls processes every call in an expression tree in inspection order:
// lock operations mutate the held-set, same-package calls are checked
// against their summaries. Function literals are queued for separate
// analysis with an empty held-set (they run on their own goroutine or at a
// later time; §8 violations inside them still surface).
func (w *walker) exprCalls(e ast.Expr, h held) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.funcLits = append(w.funcLits, x)
			return false
		case *ast.CallExpr:
			if op, ok := classifyLockCall(w.st.info, x); ok {
				if op.acquire {
					w.checkAcquire(x.Pos(), op.class, h, "")
					h[op.class] = x.Pos()
				} else {
					delete(h, op.class)
				}
				return true
			}
			if callee := w.st.callee(x); callee != nil {
				for c := range w.st.summaries[callee] {
					w.checkAcquire(x.Pos(), c, h, "call to "+callee.Name()+" ")
				}
				for c, holds := range w.st.handoffs[callee] {
					if holds {
						h[c] = x.Pos()
					} else {
						delete(h, c)
					}
				}
			}
		}
		return true
	})
}

// block interprets a statement list, returning the exit held-set and
// whether every path through the list terminates (returns/panics) before
// falling off the end.
func (w *walker) block(stmts []ast.Stmt, h held) (held, bool) {
	for _, s := range stmts {
		var terminated bool
		h, terminated = w.stmt(s, h)
		if terminated {
			return h, true
		}
	}
	return h, false
}

// stmt interprets one statement.
func (w *walker) stmt(s ast.Stmt, h held) (held, bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		w.exprCalls(x.X, h)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			w.exprCalls(e, h)
		}
		for _, e := range x.Lhs {
			w.exprCalls(e, h)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.exprCalls(v, h)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the remainder of the
		// body (correct: later acquisitions happen under it). A deferred
		// anonymous function is analyzed separately.
		if op, ok := classifyLockCall(w.st.info, x.Call); ok && op.acquire {
			// defer mu.Lock() — acquisition at exit; check against the
			// current held-set as an approximation.
			w.checkAcquire(x.Call.Pos(), op.class, h, "deferred ")
		}
		if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
			w.funcLits = append(w.funcLits, fl)
		}
	case *ast.GoStmt:
		if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
			w.funcLits = append(w.funcLits, fl)
		} else {
			w.exprCalls(x.Call, h)
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			w.exprCalls(e, h)
		}
		return h, true
	case *ast.IfStmt:
		if x.Init != nil {
			h, _ = w.stmt(x.Init, h)
		}
		w.exprCalls(x.Cond, h)
		thenH, thenTerm := w.block(x.Body.List, h.clone())
		elseH, elseTerm := h, false
		if x.Else != nil {
			switch e := x.Else.(type) {
			case *ast.BlockStmt:
				elseH, elseTerm = w.block(e.List, h.clone())
			case *ast.IfStmt:
				var eh held
				eh, elseTerm = w.stmt(e, h.clone())
				elseH = eh
			}
		}
		switch {
		case thenTerm && elseTerm:
			return h, true
		case thenTerm:
			return elseH, false
		case elseTerm:
			return thenH, false
		default:
			return thenH.union(elseH), false
		}
	case *ast.BlockStmt:
		return w.block(x.List, h)
	case *ast.ForStmt:
		if x.Init != nil {
			h, _ = w.stmt(x.Init, h)
		}
		w.exprCalls(x.Cond, h)
		bodyH := w.loopBody(x.Body.List, h)
		if x.Post != nil {
			w.stmt(x.Post, bodyH)
		}
		// The body runs zero or more times; merge both possibilities.
		return h.union(bodyH), false
	case *ast.RangeStmt:
		w.exprCalls(x.X, h)
		bodyH := w.loopBody(x.Body.List, h)
		return h.union(bodyH), false
	case *ast.SwitchStmt:
		if x.Init != nil {
			h, _ = w.stmt(x.Init, h)
		}
		w.exprCalls(x.Tag, h)
		return w.caseBodies(x.Body, h)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			h, _ = w.stmt(x.Init, h)
		}
		return w.caseBodies(x.Body, h)
	case *ast.SelectStmt:
		return w.caseBodies(x.Body, h)
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, h)
	case *ast.SendStmt:
		w.exprCalls(x.Chan, h)
		w.exprCalls(x.Value, h)
	case *ast.IncDecStmt:
		w.exprCalls(x.X, h)
	}
	return h, false
}

// loopBody interprets a loop body twice: once from the loop-entry state and
// once from the merged back-edge state, so a lock acquired in iteration N
// and still held when iteration N+1 re-acquires it is caught (the
// stop-the-world sweep shape). reportOnce dedups the double visit.
func (w *walker) loopBody(stmts []ast.Stmt, h held) held {
	first, _ := w.block(stmts, h.clone())
	again, _ := w.block(stmts, h.union(first))
	return first.union(again)
}

// caseBodies merges the clause bodies of a switch/select.
func (w *walker) caseBodies(body *ast.BlockStmt, h held) (held, bool) {
	out := h.clone()
	for _, cs := range body.List {
		var stmts []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.exprCalls(e, h)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.stmt(c.Comm, h.clone())
			}
			stmts = c.Body
		}
		ch, terminated := w.block(stmts, h.clone())
		if !terminated {
			out = out.union(ch)
		}
	}
	return out, false
}
