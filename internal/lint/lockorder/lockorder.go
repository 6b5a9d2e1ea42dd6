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
// The path interpreter (program.Interpret, whose rules are DESIGN.md §9's)
// tracks the held-set along every path of each function body and function
// literal, and a site names the first held class it breaks the order
// against, by rank, then name. A whole-program fixpoint over the call graph (SCC-ordered, DESIGN.md
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
	"sort"

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
	summaries := program.Summaries(pass.Prog, acquisitions)
	handoffs := handoffs(pass.Prog)
	reportf := program.ReportOnce(pass.Reportf)
	// check validates acquiring class c while h is held, against the held
	// classes in order, so a site reports the same one on every run.
	check := func(pos token.Pos, c lockClass, h program.Facts[lockClass], via string) {
		for _, hc := range ordered(h) {
			switch {
			case hc == c:
				reportf(pos, "%sacquires %s while a %s is already held (%s)",
					via, c, hc, "at most one lock of a class may be held")
			case hc.leaf():
				reportf(pos, "%sacquires %s while holding leaf lock %s (leaves are terminal: nothing may be acquired under them)",
					via, c, hc)
			case c.rank < hc.rank:
				reportf(pos, "%sacquires %s while holding %s, against the order (%s)",
					via, c, hc, orderDoc)
			}
		}
	}
	paths := program.Paths[lockClass]{
		// A lock operation moves the held-set; a call is checked against
		// everything its callee's closure acquires, and a handoff moves the
		// held-set as the Lock or Unlock it stands for.
		Call: func(call *ast.CallExpr, h program.Facts[lockClass]) {
			if op, ok := classifyLockCall(pass.TypesInfo, call); ok {
				if op.acquire {
					check(call.Pos(), op.class, h, "")
					h[op.class] = call.Pos()
				} else {
					delete(h, op.class)
				}
				return
			}
			callee := pass.Prog.Callee(pass.TypesInfo, call)
			if callee == nil {
				return
			}
			for _, c := range ordered(summaries[callee]) {
				check(call.Pos(), c, h, "call to "+callee.Name()+" ")
			}
			for c, holds := range handoffs[callee] {
				if holds {
					h[c] = call.Pos()
				} else {
					delete(h, c)
				}
			}
		},
		// A deferred Unlock keeps the lock held for the rest of the body,
		// where later acquisitions happen under it. A deferred Lock runs at
		// exit; it is checked against the held-set of the defer.
		Defer: func(d *ast.DeferStmt, h program.Facts[lockClass]) {
			if op, ok := classifyLockCall(pass.TypesInfo, d.Call); ok && op.acquire {
				check(d.Call.Pos(), op.class, h, "deferred ")
			}
		},
	}
	program.EachBody(pass.Files, func(body *ast.BlockStmt) { program.Interpret(body, paths) })
	return nil, nil
}

// ordered returns a set's classes by rank, then name.
func ordered[V any](set map[lockClass]V) []lockClass {
	out := make([]lockClass, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].rank != out[j].rank {
			return out[i].rank < out[j].rank
		}
		return out[i].name < out[j].name
	})
	return out
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
