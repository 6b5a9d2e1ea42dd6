package waitloop

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pbox/internal/lint/loader"
	"pbox/internal/lint/program"
)

// TestTable5 is the paper's Table 5 on this repository: for each instrumented
// package, the functions the analyzer inspects, the state-event sites written
// by hand, and the wait loops the analyzer detects. The counts are pinned: a
// substrate change that adds or loses a wait loop or an annotation shows up
// here, and so does an analyzer change that finds more or fewer of them.
// vres's loops are pinned line for line, and checked against where vres
// issues PREPARE.
func TestTable5(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	var vres *Result
	for _, want := range []struct {
		pkg                         string
		inspected, manual, detected int
	}{
		// vres: all seven sleep-and-recheck loops on a held resource (the
		// eighth, Queue.Pop's idle wait for work, waits on no holder). The
		// applications wait through vres.
		{"internal/vres", 63, 38, 7},
		{"internal/apps/minidb", 29, 0, 0},
		{"internal/apps/minipg", 23, 0, 0},
		{"internal/apps/miniweb", 13, 0, 0},
		{"internal/apps/miniproxy", 17, 4, 0},
		// minikv's accept loop calls net.Conn's Close, and its own
		// (*Server).Close waits on a sync.WaitGroup, which is no waiting
		// function: no wait loop.
		{"internal/apps/minikv", 18, 0, 0},
	} {
		res, err := AnalyzePattern(root, "./"+want.pkg)
		if err != nil {
			t.Fatal(err)
		}
		if want.pkg == "internal/vres" {
			vres = res
		}
		manual := manualEvents(t, filepath.Join(root, want.pkg))
		if res.InspectedFuncs != want.inspected || manual != want.manual || len(res.Locations) != want.detected {
			t.Errorf("%s: inspected %d, manual event sites %d, detected wait loops %d; want %d, %d, %d",
				want.pkg, res.InspectedFuncs, manual, len(res.Locations), want.inspected, want.manual, want.detected)
		}
	}

	var got []string
	for _, l := range vres.Locations {
		l.File = filepath.Base(l.File)
		got = append(got, l.String())
	}
	want := []string{
		"bufferpool.go:177: in (*BufferPool).evictOne: wait via (*resource).sleep, shared vars: bp.free",
		"mutex.go:32: in (*Mutex).Lock: wait via (*resource).sleep, shared vars: m.state",
		"mutex.go:86: in (*RWLock).LockShared: wait via (*resource).sleep, shared vars: l.state",
		"mutex.go:102: in (*RWLock).LockExclusive: wait via (*resource).sleep, shared vars: l.state",
		"queue.go:74: in (*Queue).Push: wait via (*resource).sleep, shared vars: q.capacity, q.closed, q.items",
		"slots.go:41: in (*Slots).Acquire: wait via (*resource).sleep, shared vars: s.limit",
		"slots.go:124: in (*Tickets).Enter: wait via (*resource).sleep, shared vars: t.active, t.limit",
	}
	if !slices.Equal(got, want) {
		t.Errorf("vres locations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if !slices.Equal(vres.Wrappers, []string{"(*resource).sleep"}) {
		t.Errorf("vres wrappers %v, want [(*resource).sleep]", vres.Wrappers)
	}
	checkPrepares(t, root, vres)
}

// checkPrepares holds Table 5's two vres columns to each other: a detected
// wait loop is where an activity waits after PREPARE, and a PREPARE is where
// it is about to wait.
//   - Each detected loop lies in a function that issues PREPARE, or in one
//     reached only from such functions (evictOne, from Get and GetBatch).
//   - Each function that issues PREPARE reaches a detected loop, save the
//     non-blocking paths named below.
func checkPrepares(t *testing.T, root string, vres *Result) {
	nonBlocking := map[string]string{
		"(*Mutex).TryLock":    "emits PREPARE only once the lock is taken, so it never waits",
		"(*Slots).TryAcquire": "emits PREPARE only once a unit is taken, so it never waits",
	}
	pkgs, err := loader.Load(root, "./internal/vres")
	if err != nil {
		t.Fatal(err)
	}
	prog := program.Build(pkgs)
	byName := map[string]*program.Func{}
	for _, fn := range prog.Funcs() {
		byName[funcName(fn.Obj, fn.Obj.Pkg())] = fn
	}
	prepares := func(fn *program.Func) (n int) {
		program.Calls(fn.Decl.Body, func(call *ast.CallExpr) {
			for _, arg := range call.Args {
				sel, ok := arg.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				c, ok := fn.Pkg.Info.Uses[sel.Sel].(*types.Const)
				if ok && c.Pkg().Path() == "pbox/internal/core" && c.Name() == "Prepare" {
					n++
				}
			}
		})
		return n
	}

	// A function is prepared when it issues PREPARE or all its callers are
	// prepared; a cycle of callers is not.
	var isPrepared func(fn *program.Func, seen map[*program.Func]bool) bool
	isPrepared = func(fn *program.Func, seen map[*program.Func]bool) bool {
		if prepares(fn) > 0 {
			return true
		}
		if seen[fn] || len(fn.Callers) == 0 {
			return false
		}
		seen[fn] = true
		defer delete(seen, fn)
		for _, c := range fn.Callers {
			if !isPrepared(c, seen) {
				return false
			}
		}
		return true
	}
	looped := map[*program.Func]bool{}
	for _, l := range vres.Locations {
		fn := byName[l.Func]
		if fn == nil {
			t.Fatalf("no function %s in vres", l.Func)
		}
		looped[fn] = true
		if !isPrepared(fn, map[*program.Func]bool{}) {
			t.Errorf("detected loop in %s, which is reached from a function that issues no PREPARE", l.Func)
		}
	}

	// Every PREPARE issuer reaches a detected loop through its callees.
	var reaches func(fn *program.Func, seen map[*program.Func]bool) bool
	reaches = func(fn *program.Func, seen map[*program.Func]bool) bool {
		if looped[fn] {
			return true
		}
		seen[fn] = true
		for _, c := range fn.Callees {
			if !seen[c] && reaches(c, seen) {
				return true
			}
		}
		return false
	}
	sites := 0
	for name, fn := range byName {
		n := prepares(fn)
		if n == 0 {
			continue
		}
		sites += n
		why, exempt := nonBlocking[name]
		switch reached := reaches(fn, map[*program.Func]bool{}); {
		case reached && exempt:
			t.Errorf("%s is listed as non-blocking (%s) but reaches a detected loop", name, why)
		case !reached && !exempt:
			t.Errorf("%s issues PREPARE but reaches no detected loop", name)
		}
	}
	for name := range nonBlocking {
		if fn := byName[name]; fn == nil || prepares(fn) == 0 {
			t.Errorf("%s is listed as non-blocking but issues no PREPARE", name)
		}
	}
	if sites != 10 {
		t.Errorf("vres issues PREPARE at %d sites, want 10 (eight at the seven loops, two non-blocking)", sites)
	}
}

// manualEvents counts the hand-written state-event sites of a package's
// non-test files: calls of a method named event or Event.
func manualEvents(t *testing.T, dir string) (n int) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "event" || sel.Sel.Name == "Event") {
					n++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
