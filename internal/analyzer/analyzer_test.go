package analyzer

import (
	"strings"
	"testing"
)

func analyze(t *testing.T, src string) *Result {
	t.Helper()
	res, err := New(nil).AnalyzeSource("test.go", "package p\n\nimport \"time\"\n\nvar _ = time.Now\n"+src)
	if err != nil {
		t.Fatalf("AnalyzeSource: %v", err)
	}
	return res
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
`)
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
`)
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
`)
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
`)
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
`)
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
`)
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
`)
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
`)
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
`)
	if len(res.Locations) != 1 {
		t.Fatalf("atomic-load loop not found: %v", res.Locations)
	}
	vars := res.Locations[0].SharedVars
	if !containsVar(vars, "counter") || !containsVar(vars, "limit") {
		t.Fatalf("shared vars = %v", vars)
	}
}

func TestCustomWaitFuncs(t *testing.T) {
	a := New([]string{"mylib.Backoff"})
	res, err := a.AnalyzeSource("x.go", `package p
import "mylib"
var busy bool
func wait() {
	for busy {
		mylib.Backoff()
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Locations) != 1 {
		t.Fatalf("locations = %d, want 1 via custom wait func", len(res.Locations))
	}
}

func TestLocationStringFormat(t *testing.T) {
	l := Location{File: "f.go", Line: 10, Func: "g", WaitCall: "time.Sleep", SharedVars: []string{"x"}}
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
