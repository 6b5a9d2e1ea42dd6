// Command pboxreplay is the offline side of the capture/replay subsystem:
// it inspects recorded pBox event logs and re-runs them through a fresh
// manager under different options — the detector-tuning loop.
//
//	pboxreplay info <log>                 # segments, record counts, recorded verdicts
//	pboxreplay cat [-n N] <log>           # dump decoded records
//	pboxreplay replay [-config S] <log>   # replay under one config, print the digest
//	pboxreplay sweep [-grid S] <log>      # replay across a config grid, print the delta table
//	pboxreplay diff [-config S] <a> <b>   # replay two logs, print digest differences
//
// <log> is a capture directory written by a Recorder (pboxd -record,
// pboxbench -exp record-cases) or a single .pblog segment.
//
// A config spec is a comma-separated list of knobs; a grid is config specs
// joined by ';'. Example:
//
//	pboxreplay sweep -grid 'base; level=2; level=16; level=128; nodetect' c1/
//
// Knobs: name=<label> (defaults to the spec itself), level=<f> (override
// every pBox's isolation-rule level — the detection threshold),
// threshold=<f> (pBox-level monitor trigger fraction), alpha=<f>,
// gapfactor=<f>, minpen/maxpen/fixed=<duration>, nodetect (pure tracing),
// nopboxlevel (Algorithm 1 only). There is no shard or spool knob: replay is
// single-threaded through Manager.Update, so neither can change a digest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
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
	case "replay":
		err = runReplay(rest)
	case "sweep":
		err = runSweep(rest)
	case "diff":
		err = runDiff(rest)
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
	fmt.Fprint(os.Stderr, `usage: pboxreplay <command> [flags] <log...>

  info   <log>            summarize a capture log and its recorded verdicts
  cat    [-n N] <log>     print decoded records
  replay [-config S] [-json] <log>
                          replay under one config and print the digest
  sweep  [-grid S] [-json] <log>
                          replay across a config grid, print the delta table
  diff   [-config S] [-recorded] <a> <b>
                          compare two logs' digests under one config

config spec: comma-separated knobs, e.g. 'level=2,fixed=1ms,nopboxlevel'
grid: config specs joined by ';'
knobs: name= level= threshold= alpha= gapfactor= minpen= maxpen= fixed=
       nodetect nopboxlevel
`)
}

// parseConfig turns one comma-separated spec into a replay Config.
func parseConfig(spec string) (capture.Config, error) {
	cfg := capture.Config{Name: strings.TrimSpace(spec)}
	if cfg.Name == "" || cfg.Name == "base" {
		cfg.Name = "base"
		return cfg, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, hasVal := strings.Cut(tok, "=")
		var err error
		switch key {
		case "name":
			cfg.Name = val
		case "level":
			cfg.RuleLevel, err = strconv.ParseFloat(val, 64)
		case "threshold":
			cfg.Options.PBoxLevelThreshold, err = strconv.ParseFloat(val, 64)
		case "alpha":
			cfg.Options.Alpha, err = strconv.ParseFloat(val, 64)
		case "gapfactor":
			cfg.Options.GapPolicyFactor, err = strconv.ParseFloat(val, 64)
		case "minpen":
			cfg.Options.MinPenalty, err = time.ParseDuration(val)
		case "maxpen":
			cfg.Options.MaxPenalty, err = time.ParseDuration(val)
		case "fixed":
			cfg.Options.FixedPenalty, err = time.ParseDuration(val)
		case "nodetect":
			cfg.Options.DisableDetection = true
		case "nopboxlevel":
			cfg.Options.DisablePBoxLevel = true
		default:
			return cfg, fmt.Errorf("unknown config knob %q (see pboxreplay -h)", key)
		}
		if !hasVal && key != "nodetect" && key != "nopboxlevel" {
			return cfg, fmt.Errorf("config knob %q needs a value", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("config knob %q: %w", tok, err)
		}
	}
	return cfg, nil
}

// parseGrid splits a ';'-joined grid into configs.
func parseGrid(spec string) ([]capture.Config, error) {
	var grid []capture.Config
	for _, part := range strings.Split(spec, ";") {
		cfg, err := parseConfig(part)
		if err != nil {
			return nil, err
		}
		grid = append(grid, cfg)
	}
	return grid, nil
}

// defaultGrid is the out-of-the-box detector-tuning sweep: the recorded
// options, three detection-threshold overrides (the interference ratios the
// cases produce sit well above 1, so the interesting range is coarse), and
// detection off.
const defaultGrid = "base; level=2; level=16; level=128; nodetect"

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print Info + recorded digest as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info: want one log path, got %d", fs.NArg())
	}
	log, err := capture.ReadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	rec := capture.LogSummary(log)
	if *asJSON {
		return printJSON(struct {
			Info     capture.Info    `json:"info"`
			Recorded *capture.Digest `json:"recorded"`
		}{log.Info, rec})
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
	fmt.Printf("recorded run: detections=%d actions=%d served=%v victim_p95=%v\n",
		rec.Detections, rec.Actions,
		time.Duration(rec.PenaltyServedNs), time.Duration(rec.VictimAdjP95))
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

func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	spec := fs.String("config", "base", "replay config spec")
	asJSON := fs.Bool("json", false, "print the full digest as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: want one log path, got %d", fs.NArg())
	}
	cfg, err := parseConfig(*spec)
	if err != nil {
		return err
	}
	log, err := capture.ReadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	rr, err := capture.Replay(log, cfg)
	if err != nil {
		return err
	}
	if rr.Skipped > 0 || rr.IDRemaps > 0 {
		fmt.Fprintf(os.Stderr, "pboxreplay: partial log: skipped=%d id-remaps=%d (digest not comparable across logs)\n",
			rr.Skipped, rr.IDRemaps)
	}
	if *asJSON {
		return printJSON(rr.Digest)
	}
	d := rr.Digest
	fmt.Printf("config     %s\n", cfg.Name)
	fmt.Printf("pboxes     %d  events %d  activities %d\n", d.PBoxes, d.Events, d.Activities)
	fmt.Printf("detections %d  actions %d  served %d (%v)\n",
		d.Detections, d.Actions, d.PenaltiesServed, time.Duration(d.PenaltyServedNs))
	for _, k := range sortedKeys(d.ActionsByPolicy) {
		fmt.Printf("  policy %-8s %d\n", k, d.ActionsByPolicy[k])
	}
	fmt.Printf("latency    p50=%v p95=%v p99=%v (adjusted p95=%v)\n",
		time.Duration(d.RawP50), time.Duration(d.RawP95), time.Duration(d.RawP99), time.Duration(d.AdjP95))
	fmt.Printf("victims    raw_p95=%v adj_p95=%v\n",
		time.Duration(d.VictimRawP95), time.Duration(d.VictimAdjP95))
	fmt.Printf("hash       %s\n", d.Hash)
	return nil
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	gridSpec := fs.String("grid", defaultGrid, "';'-joined config specs; first is the delta baseline")
	asJSON := fs.Bool("json", false, "print the full sweep result as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("sweep: want one log path, got %d", fs.NArg())
	}
	grid, err := parseGrid(*gridSpec)
	if err != nil {
		return err
	}
	log, err := capture.ReadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := capture.Sweep(log, grid)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(res)
	}
	fmt.Print(res.Table())
	return nil
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	spec := fs.String("config", "base", "config both logs are replayed under")
	recorded := fs.Bool("recorded", false, "diff the logs' recorded annotations instead of replaying")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want two log paths, got %d", fs.NArg())
	}
	cfg, err := parseConfig(*spec)
	if err != nil {
		return err
	}
	digest := func(path string) (*capture.Digest, error) {
		log, err := capture.ReadLog(path)
		if err != nil {
			return nil, err
		}
		if *recorded {
			return capture.LogSummary(log), nil
		}
		rr, err := capture.Replay(log, cfg)
		if err != nil {
			return nil, err
		}
		return rr.Digest, nil
	}
	a, err := digest(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := digest(fs.Arg(1))
	if err != nil {
		return err
	}
	lines := capture.Diff(a, b)
	if len(lines) == 0 {
		fmt.Println("digests identical")
		return nil
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	os.Exit(1) // differences found: diff-style exit code
	return nil
}

func printJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
