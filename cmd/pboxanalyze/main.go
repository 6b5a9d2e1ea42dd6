// Command pboxanalyze runs the pBox companion static analyzer (Section 4.5,
// Algorithm 2) over Go packages, printing the candidate locations where
// update_pbox state events should be added and the shared variables (likely
// virtual resources) each location involves.
//
// It is a front-end over the same loading and reporting stack as
// cmd/pboxlint: arguments are package patterns resolved by the pboxlint
// loader, and the analysis itself is the waitloop pass, run per package
// (each package is parsed and type-checked on its own).
//
// Usage:
//
//	pboxanalyze ./internal/vres ./internal/apps/...
//	pboxanalyze -waitfuncs time.Sleep,mylib.Backoff ./...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pbox/internal/lint/waitloop"
)

func main() {
	waitList := flag.String("waitfuncs", "", "comma-separated waiting functions (default: the built-in Go list)")
	verbose := flag.Bool("v", false, "also print detected wrapper functions")
	flag.Parse()

	dirs := flag.Args()
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: pboxanalyze [flags] pattern...")
		os.Exit(2)
	}
	if *waitList != "" {
		waitloop.WaitFuncs = strings.Split(*waitList, ",")
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pboxanalyze: %v\n", err)
		os.Exit(1)
	}

	exit := 0
	for _, dir := range dirs {
		res, err := waitloop.AnalyzePattern(cwd, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pboxanalyze: %v\n", err)
			exit = 1
			continue
		}
		label := strings.TrimSuffix(dir, "/...")
		fmt.Printf("%s: %d files, %d functions inspected, %d candidate locations\n",
			label, res.Files, res.InspectedFuncs, len(res.Locations))
		if *verbose && len(res.Wrappers) > 0 {
			fmt.Printf("  wrappers of waiting functions: %s\n", strings.Join(res.Wrappers, ", "))
		}
		for _, l := range res.Locations {
			fmt.Printf("  %s\n", l)
		}
	}
	os.Exit(exit)
}
