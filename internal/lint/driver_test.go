package lint_test

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"pbox/internal/lint"
	"pbox/internal/lint/analysis"
	"pbox/internal/lint/driver"
	"pbox/internal/lint/linttest"
	"pbox/internal/lint/loader"
	"pbox/internal/lint/lockorder"
)

// TestSuppression exercises the //pboxlint:ignore machinery end to end: a
// documented ignore silences its finding and increments Suppressed; a
// malformed ignore (no reason) suppresses nothing and is itself reported; an
// ignore whose pass ran and found nothing, and one naming no registered
// pass, are reported; an ignore for a pass the run did not select is not.
func TestSuppression(t *testing.T) {
	srcRoot := linttest.TestData(t)
	fset := token.NewFileSet()
	pkg, err := loader.CheckSource(srcRoot, filepath.Join(srcRoot, "suppress"), fset)
	if err != nil {
		t.Fatal(err)
	}
	res, err := driver.Run([]*loader.Package{pkg}, []*analysis.Analyzer{lockorder.Analyzer}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", res.Suppressed)
	}
	got := map[string]int{}
	for _, d := range res.Diagnostics {
		line := fset.Position(d.Pos).Line
		switch {
		case d.Analyzer == "lockorder" && strings.Contains(d.Message, "Manager.reg"):
			got["violation"]++
		case d.Analyzer == "pboxlint" && strings.Contains(d.Message, "malformed suppression"):
			got["malformed"]++
		case d.Analyzer == "pboxlint" && strings.Contains(d.Message, "stale suppression: lockorder"):
			got["stale"]++
		case d.Analyzer == "pboxlint" && strings.Contains(d.Message, `"viewimmut", which is no registered pass`):
			got["unregistered"]++
		default:
			t.Errorf("unexpected diagnostic at line %d: [%s] %s", line, d.Analyzer, d.Message)
		}
	}
	for what, want := range map[string]int{"violation": 1, "malformed": 1, "stale": 1, "unregistered": 1} {
		if got[what] != want {
			t.Errorf("%s findings = %d, want %d (all: %v)", what, got[what], want, got)
		}
	}
}
