// Package driver runs a set of analysis passes over loaded packages,
// applies //pboxlint:ignore suppressions, and renders diagnostics — the
// multichecker behind cmd/pboxlint and the shared reporting stack behind
// cmd/pboxanalyze.
//
// Suppression syntax:
//
//	//pboxlint:ignore <pass> <reason>
//
// placed on the diagnostic's line or the line directly above it. The pass
// name must match the reporting analyzer and the reason is mandatory. An
// exception that is not in force is itself a finding: one with no reason,
// one that names no registered pass, and one whose pass ran and reported
// nothing for it to silence (a stale exception). An ignore for a registered
// pass the run did not select is not judged.
package driver

import (
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"

	"pbox/internal/lint/analysis"
	"pbox/internal/lint/loader"
	"pbox/internal/lint/program"
)

// ignorePrefix is the suppression comment marker.
const ignorePrefix = "//pboxlint:ignore"

// Result is the outcome of one Run.
type Result struct {
	// Diagnostics are the surviving (unsuppressed) findings in file/line
	// order.
	Diagnostics []analysis.Diagnostic
	// Suppressed counts findings silenced by //pboxlint:ignore comments.
	Suppressed int
	Fset       *token.FileSet
	// Returns holds each pass's run-value per package, for drivers (like
	// pboxanalyze) that consume structured results rather than diagnostics.
	Returns []PassReturn
}

// PassReturn is one analyzer's return value for one package.
type PassReturn struct {
	Analyzer   string
	ImportPath string
	Value      any
}

// Run executes every analyzer over every package and merges the findings.
// All packages of one Run share one whole-program view (Pass.Prog), so
// passes see call chains that cross package boundaries. registry is every
// pass a suppression may name.
func Run(pkgs []*loader.Package, analyzers, registry []*analysis.Analyzer) (*Result, error) {
	res := &Result{}
	prog := program.Build(pkgs)
	ran, registered := make(map[string]bool), make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, a := range registry {
		registered[a.Name] = true
	}
	for _, pkg := range pkgs {
		res.Fset = pkg.Fset
		sup := collectIgnores(pkg)
		for _, a := range analyzers {
			var diags []analysis.Diagnostic
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Prog:      prog,
				Report: func(d analysis.Diagnostic) {
					d.Analyzer = a.Name
					diags = append(diags, d)
				},
			}
			val, err := a.Run(pass)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
			}
			if val != nil {
				res.Returns = append(res.Returns, PassReturn{
					Analyzer: a.Name, ImportPath: pkg.ImportPath, Value: val,
				})
			}
			for _, d := range diags {
				if sup.matches(pkg.Fset, d) {
					res.Suppressed++
					continue
				}
				res.Diagnostics = append(res.Diagnostics, d)
			}
		}
		res.Diagnostics = append(res.Diagnostics, sup.malformed...)
		for _, e := range sup.entries {
			switch {
			case !registered[e.pass]:
				res.Diagnostics = append(res.Diagnostics, e.finding("suppression names %q, which is no registered pass", e.pass))
			case ran[e.pass] && !e.used:
				res.Diagnostics = append(res.Diagnostics, e.finding("stale suppression: %s reports nothing here to silence", e.pass))
			}
		}
	}
	if res.Fset != nil {
		sort.SliceStable(res.Diagnostics, func(i, j int) bool {
			pi, pj := res.Fset.Position(res.Diagnostics[i].Pos), res.Fset.Position(res.Diagnostics[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return res.Diagnostics[i].Analyzer < res.Diagnostics[j].Analyzer
		})
	}
	return res, nil
}

// Render writes diagnostics in the conventional file:line:col form and
// reports whether any were written.
func Render(w io.Writer, res *Result) bool {
	for _, d := range res.Diagnostics {
		pos := res.Fset.Position(d.Pos)
		fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	return len(res.Diagnostics) > 0
}

// ignoreEntry is one parsed //pboxlint:ignore comment.
type ignoreEntry struct {
	pos  token.Pos
	file string
	line int
	pass string
	used bool // it silenced a finding
}

func (e *ignoreEntry) finding(format string, args ...any) analysis.Diagnostic {
	return analysis.Diagnostic{Pos: e.pos, Analyzer: "pboxlint", Message: fmt.Sprintf(format, args...)}
}

// suppressions is the per-package ignore index.
type suppressions struct {
	entries   []*ignoreEntry
	malformed []analysis.Diagnostic
}

// collectIgnores scans a package's comments for suppression markers.
func collectIgnores(pkg *loader.Package) *suppressions {
	s := &suppressions{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, analysis.Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "pboxlint",
						Message:  "malformed suppression: want //pboxlint:ignore <pass> <reason>",
					})
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				s.entries = append(s.entries, &ignoreEntry{
					pos:  c.Pos(),
					file: pos.Filename,
					line: pos.Line,
					pass: fields[0],
				})
			}
		}
	}
	return s
}

// matches reports whether d is silenced by an ignore on its own line or the
// line directly above, and marks every such ignore used.
func (s *suppressions) matches(fset *token.FileSet, d analysis.Diagnostic) bool {
	pos := fset.Position(d.Pos)
	matched := false
	for _, e := range s.entries {
		if e.file == pos.Filename && (e.line == pos.Line || e.line == pos.Line-1) && e.pass == d.Analyzer {
			e.used = true
			matched = true
		}
	}
	return matched
}
