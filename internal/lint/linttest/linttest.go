// Package linttest is the golden-test harness for the pboxlint passes — a
// self-contained analogue of golang.org/x/tools/go/analysis/analysistest.
// Fixture packages live under internal/lint/testdata/src/<pkg>/ (the
// testdata directory keeps them out of ./... builds) and carry expectations
// as comments on the line a diagnostic is expected:
//
//	s.mu.Lock() // want `acquires shard\.mu`
//
// The backquoted text is a regexp matched against the diagnostic message.
// Several want comments may appear on one line (each must match a distinct
// diagnostic); a line with no want comment must produce no diagnostic.
// Suppression comments in fixtures are exercised end-to-end: the harness
// runs the real driver, so //pboxlint:ignore lines silence findings exactly
// as they do in production.
package linttest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pbox/internal/lint"
	"pbox/internal/lint/analysis"
	"pbox/internal/lint/driver"
	"pbox/internal/lint/loader"
)

// wantRx extracts `// want `-style expectations; the pattern is backquoted.
var wantRx = regexp.MustCompile("//\\s*want\\s+`([^`]*)`")

// expectation is one want comment.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// TestData returns the fixture root (testdata/src relative to the caller's
// package directory, i.e. the internal/lint tests).
func TestData(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// Run loads fixture package pkg under srcRoot — plus every sibling fixture
// package its imports pull in, so multi-package fixtures exercise the
// whole-program engine exactly as production runs do — applies the analyzers
// through the production driver, and diffs surviving diagnostics against
// the want comments of every loaded fixture file.
func Run(t *testing.T, srcRoot, pkg string, analyzers ...*analysis.Analyzer) *driver.Result {
	t.Helper()
	fset := token.NewFileSet()
	_, all, err := loader.CheckSourceDeps(srcRoot, filepath.Join(srcRoot, filepath.FromSlash(pkg)), fset)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkg, err)
	}
	res, err := driver.Run(all, analyzers, lint.All())
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", pkg, err)
	}

	var expects []*expectation
	for _, p := range all {
		expects = append(expects, collectWants(t, p)...)
	}
	for _, d := range res.Diagnostics {
		pos := fset.Position(d.Pos)
		if !claim(expects, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic [%s]: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
		}
	}
	return res
}

// collectWants scans the fixture sources for want comments.
func collectWants(t *testing.T, p *loader.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRx.FindAllStringSubmatch(line, -1) {
				rx, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, m[1], err)
				}
				out = append(out, &expectation{file: name, line: i + 1, pattern: rx})
			}
		}
	}
	return out
}

// claim marks the first unmatched expectation covering (file, line, msg).
func claim(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if e.matched || e.file != file || e.line != line {
			continue
		}
		if e.pattern.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}
