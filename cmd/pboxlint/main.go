// Command pboxlint is the multichecker for the pbox static-analysis suite:
// it loads packages, builds the whole-program view, runs the enforcing
// passes (eventpair, hotpathalloc, lockorder, reentry, snapshot), applies
// //pboxlint:ignore suppressions, and prints the findings, one
// file:line:col line each. A suppression that silences nothing, or names no
// registered pass, is a finding too.
//
// Usage:
//
//	pboxlint [flags] [packages]
//
// Packages default to ./... relative to the current directory. Exit status
// is 0 when the tree is clean, 1 when any finding survives suppression, and 2
// on loading or internal errors — the same convention as go vet, so CI gates
// on it directly:
//
//	go run ./cmd/pboxlint -suppressed ./...
//
// Flags:
//
//	-passes p1,p2     run only the named passes (see -list); unknown or
//	                  empty selections are an error, never a silent no-op
//	-list             print every registered pass with its doc and exit
//	-suppressed       also report the count of suppressed findings
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pbox/internal/lint"
	"pbox/internal/lint/analysis"
	"pbox/internal/lint/driver"
	"pbox/internal/lint/loader"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pboxlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	passes := fs.String("passes", "", "comma-separated pass names to run (default: all enforcing passes)")
	list := fs.Bool("list", false, "list registered passes and exit")
	showSuppressed := fs.Bool("suppressed", false, "report the number of suppressed findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected, err := selectPasses(*passes)
	if err != nil {
		fmt.Fprintf(stderr, "pboxlint: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "pboxlint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "pboxlint: %v\n", err)
		return 2
	}

	res, err := driver.Run(pkgs, selected, lint.All())
	if err != nil {
		fmt.Fprintf(stderr, "pboxlint: %v\n", err)
		return 2
	}

	if *showSuppressed {
		fmt.Fprintf(stderr, "pboxlint: %d finding(s) suppressed by //pboxlint:ignore\n", res.Suppressed)
	}

	if driver.Render(stdout, res) {
		return 1
	}
	return 0
}

// selectPasses resolves the -passes flag. An unknown name — or a selection
// that nets zero passes, like "-passes ," — is an error listing the valid
// names: a typo must never silently run nothing and exit green.
func selectPasses(spec string) ([]*analysis.Analyzer, error) {
	if spec == "" {
		return lint.Default(), nil
	}
	var selected []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a := lint.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown pass %q; valid passes: %s", name, passNames())
		}
		selected = append(selected, a)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("-passes %q selects no passes; valid passes: %s", spec, passNames())
	}
	return selected, nil
}

// passNames renders the full registry for error messages.
func passNames() string {
	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
