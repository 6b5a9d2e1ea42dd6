package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Compare mode holds result set B against result set A with each metric's
// bound from the contract. A set is one result file, a comma-separated list
// of them, or a directory of them; several runs of one workload in a set are
// folded into their median. A metric whose noise exceeds its bound is
// reported as unresolved rather than unchanged, and sets whose provenance
// differs are refused: numbers from another host, toolchain, seed or run
// length do not measure the change.

// sideRuns are one side's runs of one workload.
type sideRuns []*resultFile

func loadSet(arg string) (map[string]sideRuns, error) {
	var paths []string
	for _, p := range splitList(arg) {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			paths = append(paths, p)
			continue
		}
		found, err := filepath.Glob(filepath.Join(p, "*.json"))
		if err != nil {
			return nil, err
		}
		paths = append(paths, found...)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %q", arg)
	}
	set := map[string]sideRuns{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Provenance.Workload == "" || len(rf.Metrics) == 0 {
			return nil, fmt.Errorf("%s: not a benchmark result file", p)
		}
		if rf.Provenance.Trace != 0 {
			continue // per-layer results carry no bounds to hold
		}
		set[rf.Provenance.Workload] = append(set[rf.Provenance.Workload], &rf)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("no end-to-end (trace 0) result files in %q", arg)
	}
	return set, nil
}

// provenanceKey is what two sides must share. Seeds are compared as a
// multiset, so paired runs may each use their own seed.
func provenanceKey(runs sideRuns) string {
	var seeds []string
	for _, r := range runs {
		seeds = append(seeds, fmt.Sprint(r.Provenance.Seed))
	}
	sort.Strings(seeds)
	p := runs[0].Provenance
	for _, r := range runs[1:] {
		q := r.Provenance
		if q.NProc != p.NProc || q.GOMAXPROCS != p.GOMAXPROCS || q.GoVersion != p.GoVersion || q.Seconds != p.Seconds {
			return "mixed provenance inside one set"
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s seconds=%g seeds=%s",
		p.NProc, p.GOMAXPROCS, p.GoVersion, p.Seconds, strings.Join(seeds, ","))
}

// sideValue folds one side's runs of a metric: the median of the runs, and
// the noise as a share of it — the spread between runs when there are enough
// of them to have quartiles, else the windows' spread inside the runs.
func sideValue(runs sideRuns, name string) (value, noise float64, vals []float64) {
	var inner []float64
	for _, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return math.NaN(), math.NaN(), nil
		}
		vals = append(vals, m.Value)
		if m.Q1 != nil && m.Value != 0 {
			inner = append(inner, (*m.Q3-*m.Q1)/math.Abs(m.Value))
		}
	}
	value = median(vals)
	if len(vals) >= 4 {
		return value, iqrShare(vals), vals
	}
	if len(inner) == 0 {
		return value, 0, vals
	}
	return value, median(inner), vals
}

// verdict classifies B against A for one metric. change is B's median over
// A's, signed so that positive is worse.
func verdict(spec metricSpec, a, b sideRuns) (line string, regressed bool) {
	va, na, as := sideValue(a, spec.Name)
	vb, nb, bs := sideValue(b, spec.Name)
	if math.IsNaN(va) || math.IsNaN(vb) || va == 0 {
		return fmt.Sprintf("%-18s missing on one side", spec.Name), true
	}
	worse := (vb - va) / math.Abs(va)
	if spec.Better == "higher" {
		worse = -worse
	}
	noise := math.Max(na, nb)
	// Every run of B better than every run of A settles it whatever the noise.
	allBetter := len(as) > 1 && len(bs) > 1
	for _, x := range as {
		for _, y := range bs {
			if (spec.Better == "higher" && y <= x) || (spec.Better == "lower" && y >= x) {
				allBetter = false
			}
		}
	}
	status := "within bound"
	switch {
	case allBetter:
		status = "better in every run"
	case noise > spec.Bound:
		status = "UNRESOLVED (noise exceeds bound)"
	case worse > spec.Bound:
		status, regressed = "REGRESSED", true
	}
	return fmt.Sprintf("%-18s A %12s  B %12s %-5s worse by %+6.1f%%  noise %5.1f%%  bound %4.0f%%  %s",
		spec.Name, sig(va), sig(vb), spec.Unit, 100*worse, 100*noise, 100*spec.Bound, status), regressed
}

func compareMain(argA, argB string, stdout, stderr io.Writer) int {
	a, err := loadSet(argA)
	if err == nil {
		var b map[string]sideRuns
		if b, err = loadSet(argB); err == nil {
			return compareSets(a, b, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "benchmark: compare:", err)
	return 2
}

func compareSets(a, b map[string]sideRuns, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		ra, rb := a[w.Name], b[w.Name]
		if ra == nil && rb == nil {
			continue
		}
		if ra == nil || rb == nil {
			fmt.Fprintf(stderr, "benchmark: compare: %s is present on one side only\n", w.Name)
			return 2
		}
		if ka, kb := provenanceKey(ra), provenanceKey(rb); ka != kb {
			fmt.Fprintf(stderr, "benchmark: compare: refusing %s, provenance differs:\n  A: %s\n  B: %s\n", w.Name, ka, kb)
			return 2
		}
		fmt.Fprintf(stdout, "%s  (A: %d runs at %s, B: %d runs at %s)\n", w.Name,
			len(ra), ra[0].Provenance.Commit, len(rb), rb[0].Provenance.Commit)
		for _, side := range []sideRuns{ra, rb} {
			for _, r := range side {
				if !r.Correct {
					fmt.Fprintf(stdout, "  a run with failed output checks (failed_share %.3g) is a regression\n", r.FailedShare)
					code = 1
				}
			}
		}
		for _, spec := range endToEnd {
			line, regressed := verdict(spec, ra, rb)
			fmt.Fprintln(stdout, "  "+line)
			if regressed {
				code = 1
			}
		}
	}
	return code
}
