// Package analyzer holds the acceptance cases of the paper's Algorithm 2
// (§4.5), the companion static analyzer. The algorithm itself is the
// waitloop pass of internal/lint, which cmd/pboxanalyze fronts; each case
// here type-checks a small package and runs it through that pass.
package analyzer

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbox/internal/lint/analysis"
	"pbox/internal/lint/driver"
	"pbox/internal/lint/loader"
	"pbox/internal/lint/waitloop"
)

// analyze runs the waitloop pass over package p, whose one file imports
// time and holds src (which may begin with imports of its own). deps are
// further packages by import path, one file each, that p may import.
func analyze(t *testing.T, src string, deps map[string]string) *waitloop.Result {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{"p": "package p\n\nimport \"time\"\n" + src + "\nvar _ = time.Now\n"}
	for path, dep := range deps {
		files[path] = dep
	}
	for path, text := range files {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(dir)+".go"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, pkgs, err := loader.CheckSourceDeps(root, filepath.Join(root, "p"), token.NewFileSet())
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	passes := []*analysis.Analyzer{waitloop.Analyzer}
	res, err := driver.Run(pkgs, passes, passes)
	if err != nil {
		t.Fatalf("running waitloop: %v", err)
	}
	for _, ret := range res.Returns {
		if ret.ImportPath == "p" {
			return ret.Value.(*waitloop.Result)
		}
	}
	t.Fatal("waitloop returned no result for p")
	return nil
}

func TestFindsWaitInLoopWithSharedVar(t *testing.T) {
	res := analyze(t, `
type gate struct{ n, limit int64 }

func (g *gate) enter() {
	for {
		if g.n < g.limit {
			g.n++
			break
		}
		time.Sleep(time.Millisecond)
	}
}
`, nil)
	if len(res.Locations) != 1 {
		t.Fatalf("locations = %d, want 1: %v", len(res.Locations), res.Locations)
	}
	l := res.Locations[0]
	if l.Func != "(*gate).enter" {
		t.Fatalf("func = %q", l.Func)
	}
	if !containsVar(l.SharedVars, "g.n") || !containsVar(l.SharedVars, "g.limit") {
		t.Fatalf("shared vars = %v, want g.n and g.limit", l.SharedVars)
	}
}

func TestSkipsSelfWaitingLoop(t *testing.T) {
	res := analyze(t, `
func periodic() {
	for i := 0; i < 10; i++ {
		time.Sleep(time.Millisecond)
	}
}
`, nil)
	if len(res.Locations) != 0 {
		t.Fatalf("self-waiting loop flagged: %v", res.Locations)
	}
}

func TestSkipsLoopWithoutWait(t *testing.T) {
	res := analyze(t, `
var shared int

func busy() {
	for shared < 10 {
		shared++
	}
}
`, nil)
	if len(res.Locations) != 0 {
		t.Fatalf("non-waiting loop flagged: %v", res.Locations)
	}
}

func TestDetectsWrapperFunctions(t *testing.T) {
	res := analyze(t, `
func backoff() {
	time.Sleep(time.Millisecond)
}

var free int

func take() {
	for free == 0 {
		backoff()
	}
}
`, nil)
	if len(res.Wrappers) != 1 || res.Wrappers[0] != "backoff" {
		t.Fatalf("wrappers = %v, want [backoff]", res.Wrappers)
	}
	if len(res.Locations) != 1 {
		t.Fatalf("locations = %d, want 1 (via wrapper)", len(res.Locations))
	}
	if res.Locations[0].WaitCall != "backoff" {
		t.Fatalf("wait call = %q, want backoff", res.Locations[0].WaitCall)
	}
}

func TestWrapperOfWrapperFixpoint(t *testing.T) {
	res := analyze(t, `
func inner() { time.Sleep(time.Millisecond) }
func middle() { inner() }

var cond bool

func waiter() {
	for !cond {
		middle()
	}
}
`, nil)
	if len(res.Wrappers) != 2 {
		t.Fatalf("wrappers = %v, want inner and middle", res.Wrappers)
	}
	if len(res.Locations) != 1 {
		t.Fatalf("locations = %d, want 1 via middle", len(res.Locations))
	}
}

func TestConditionalWaitIsNotAWrapper(t *testing.T) {
	res := analyze(t, `
func maybeSleep(x bool) {
	if x {
		time.Sleep(time.Millisecond)
	}
}
`, nil)
	if len(res.Wrappers) != 0 {
		t.Fatalf("conditional sleeper classified wrapper: %v", res.Wrappers)
	}
}

func TestPackageLevelSharedVar(t *testing.T) {
	res := analyze(t, `
var ready bool

func wait() {
	for !ready {
		time.Sleep(time.Millisecond)
	}
}
`, nil)
	if len(res.Locations) != 1 {
		t.Fatalf("locations = %d, want 1", len(res.Locations))
	}
	if !containsVar(res.Locations[0].SharedVars, "ready") {
		t.Fatalf("shared vars = %v, want ready", res.Locations[0].SharedVars)
	}
}

func TestBreakInsideNestedIf(t *testing.T) {
	res := analyze(t, `
type s struct{ active, limit int64 }

func (x *s) enter() {
	for {
		if x.active < x.limit {
			if x.active >= 0 {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
}
`, nil)
	if len(res.Locations) != 1 {
		t.Fatalf("nested-break loop not found: %v", res.Locations)
	}
}

func TestAtomicLoadInCondition(t *testing.T) {
	res := analyze(t, `
type counterT struct{}
func (counterT) Load() int64 { return 0 }
var counter counterT
var limit int64

func wait() {
	for counter.Load() >= limit {
		time.Sleep(time.Millisecond)
	}
}
`, nil)
	if len(res.Locations) != 1 {
		t.Fatalf("atomic-load loop not found: %v", res.Locations)
	}
	vars := res.Locations[0].SharedVars
	if !containsVar(vars, "counter") || !containsVar(vars, "limit") {
		t.Fatalf("shared vars = %v", vars)
	}
}

// TestCustomWaitFuncs replaces the wait list, as pboxanalyze -waitfuncs
// does, with a function of an imported package, named by its full name.
func TestCustomWaitFuncs(t *testing.T) {
	defer func(list []string) { waitloop.WaitFuncs = list }(waitloop.WaitFuncs)
	waitloop.WaitFuncs = []string{"mylib.Backoff"}
	res := analyze(t, `
import "mylib"

var busy bool

func wait() {
	for busy {
		mylib.Backoff()
	}
}
`, map[string]string{"mylib": "package mylib\n\nfunc Backoff() {}\n"})
	if len(res.Locations) != 1 {
		t.Fatalf("locations = %d, want 1 via custom wait func", len(res.Locations))
	}
}

func TestLocationStringFormat(t *testing.T) {
	l := waitloop.Location{File: "f.go", Line: 10, Func: "g", WaitCall: "time.Sleep", SharedVars: []string{"x"}}
	s := l.String()
	for _, part := range []string{"f.go:10", "g", "time.Sleep", "x"} {
		if !strings.Contains(s, part) {
			t.Fatalf("String() = %q missing %q", s, part)
		}
	}
}

func containsVar(vars []string, want string) bool {
	for _, v := range vars {
		if v == want {
			return true
		}
	}
	return false
}
