package waitloop

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTable5 is the paper's Table 5 on this repository: for each instrumented
// package, the functions the analyzer inspects, the state-event sites written
// by hand, and the wait loops the analyzer detects. The counts are pinned: a
// substrate change that adds or loses a wait loop or an annotation shows up
// here, and so does an analyzer change that finds more or fewer of them.
func TestTable5(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	for _, want := range []struct {
		pkg                         string
		inspected, manual, detected int
	}{
		// vres: all seven sleep-and-recheck loops on a held resource (the
		// eighth, Queue.Pop's idle wait for work, waits on no holder). The
		// applications wait through vres, save minikv's one loop of its own.
		{"internal/vres", 63, 38, 7},
		{"internal/apps/minidb", 29, 0, 0},
		{"internal/apps/minipg", 23, 0, 0},
		{"internal/apps/miniweb", 13, 0, 0},
		{"internal/apps/miniproxy", 17, 4, 0},
		{"internal/apps/minikv", 18, 0, 1},
	} {
		res, err := AnalyzePattern(root, "./"+want.pkg)
		if err != nil {
			t.Fatal(err)
		}
		manual := manualEvents(t, filepath.Join(root, want.pkg))
		if res.InspectedFuncs != want.inspected || manual != want.manual || len(res.Locations) != want.detected {
			t.Errorf("%s: inspected %d, manual event sites %d, detected wait loops %d; want %d, %d, %d",
				want.pkg, res.InspectedFuncs, manual, len(res.Locations), want.inspected, want.manual, want.detected)
		}
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
