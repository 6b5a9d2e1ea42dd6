// Command pboxreplay reads the event logs capture.Recorder writes (pboxd
// -record): a log's footprint and record counts, and its records as text.
//
//	pboxreplay info [-json] <log>   # segments, bytes, records by kind, clock span
//	pboxreplay cat [-n N] <log>     # dump decoded records, one core.Record per line
//
// <log> is a capture directory or a single .pblog segment. What another
// detector configuration would have done is a question for the case lab
// (internal/cases), which re-executes the cases closed loop.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"pbox/internal/capture"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "info":
		err = runInfo(rest)
	case "cat":
		err = runCat(rest)
	default:
		fmt.Fprintf(os.Stderr, "pboxreplay: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pboxreplay: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: pboxreplay <command> [flags] <log>

  info [-json] <log>   summarize a capture log: segments, records by kind, clock span
  cat  [-n N] <log>    print decoded records
`)
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the log's Info as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info: want one log path, got %d", fs.NArg())
	}
	log, err := capture.ReadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	if *asJSON {
		b, err := json.MarshalIndent(log.Info, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	i := log.Info
	fmt.Printf("segments   %d (%d bytes)\n", i.Segments, i.Bytes)
	fmt.Printf("records    %d\n", i.Records)
	fmt.Printf("pboxes     %d\n", i.PBoxes)
	fmt.Printf("clock span %v .. %v (%v)\n",
		time.Duration(i.FirstAt), time.Duration(i.LastAt), time.Duration(i.LastAt-i.FirstAt))
	if i.Truncated {
		fmt.Println("truncated  yes (torn tail tolerated; annotations may be incomplete)")
	}
	kinds := make([]string, 0, len(i.ByKind))
	for k := range i.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-14s %d\n", k, i.ByKind[k])
	}
	return nil
}

func runCat(args []string) error {
	fs := flag.NewFlagSet("cat", flag.ExitOnError)
	n := fs.Int("n", 0, "print at most this many records (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("cat: want one log path, got %d", fs.NArg())
	}
	log, err := capture.ReadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	recs := log.Records
	if *n > 0 && *n < len(recs) {
		recs = recs[:*n]
	}
	for i := range recs {
		fmt.Println(recs[i])
	}
	if len(recs) < len(log.Records) {
		fmt.Printf("... %d more records\n", len(log.Records)-len(recs))
	}
	return nil
}
