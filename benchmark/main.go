// Command benchmark is the one benchmark of this repository: five named
// workloads driven against the public functions of the pBox packages,
// end-to-end metrics measured with tracing off, and per-layer metrics from a
// separate traced run. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract it is run by.
//
//	go run ./benchmark                                  every workload, end to end
//	go run ./benchmark --workload wire_ingest --seed 7 --seconds 20 --trace 0
//	go run ./benchmark --workload wire_ingest --trace 1  the traced run
//	go run ./benchmark -compare a.json b.json            hold b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "all", "workload to run, or all")
		seed      = fs.Int64("seed", 1, "workload seed: key bases, tenant ids, case order")
		seconds   = fs.Float64("seconds", runSeconds, "measured seconds per run")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
		outDir    = fs.String("out", filepath.Join("benchmark", "out"), "directory for result files, span files and scratch data")
		compare   = fs.Bool("compare", false, "compare two result sets: -compare a.json[,a2.json...] b.json[,b2.json...]")
		printSpec = fs.Bool("print-spec", false, "print BENCHMARK.json as generated from the tables and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printSpec:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchmarkSpec()); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result sets")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	// Load comes from nproc generators on nproc Ps; both are recorded.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, name := range names {
		if err := checkWorkload(name); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		req := request{workload: name, seed: *seed, seconds: *seconds, trace: *trace, outDir: *outDir}
		rf, err := req.run(stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, *seed, *trace))
		if err := rf.write(path); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		rf.print(stdout, path)
		if !rf.Correct {
			code = 1
		}
		// The contract's result line: the last line of a single-workload run.
		fmt.Fprintln(stdout, rf.contractLine())
	}
	return code
}

// request is one invocation for one workload.
type request struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	outDir   string
}

// provenance is what two result files must share to be comparable, plus the
// commit the numbers belong to.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Platform   string  `json:"platform"`
	Commit     string  `json:"commit"`
	Started    string  `json:"started"`
}

// commit returns the VCS revision the binary was built from ("unknown" when
// it was built outside a repository or by go run, which does not stamp one).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func (rq request) provenance() provenance {
	return provenance{
		Workload:   rq.workload,
		Seed:       rq.seed,
		Seconds:    rq.seconds,
		Trace:      rq.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit(),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// metricOut is one metric in a result file. Q1 and Q3 are the quartiles of
// the windows (case passes, set-up repeats) the value is the median of: the
// metric's own noise estimate. Per-layer metrics carry none.
type metricOut struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Better  string   `json:"better"`
	Q1      *float64 `json:"q1,omitempty"`
	Q3      *float64 `json:"q3,omitempty"`
	Windows int      `json:"windows,omitempty"`
}

// resultFile is what a run writes to benchmark/out/.
type resultFile struct {
	Provenance     provenance           `json:"provenance"`
	Correct        bool                 `json:"correct"`
	Attempted      int64                `json:"attempted"`
	Failed         int64                `json:"failed"`
	FailedShare    float64              `json:"failed_share"`
	Problems       []string             `json:"problems,omitempty"`
	DroppedWindows int                  `json:"dropped_windows"`
	TailPercentile float64              `json:"tail_percentile,omitempty"`
	Samples        int                  `json:"fewest_latency_samples,omitempty"` // in the window (case run) that has fewest
	Metrics        map[string]metricOut `json:"metrics"`
	Detail         map[string]any       `json:"detail,omitempty"`

	order []string // metric names in table order
	notes []string // lines for the human report
}

func newResultFile(p provenance) *resultFile {
	return &resultFile{Provenance: p, Metrics: map[string]metricOut{}, Detail: map[string]any{}}
}

// problem records a failed output check of the harness's own.
func (rf *resultFile) problem(format string, args ...any) {
	rf.Failed++
	rf.Problems = append(rf.Problems, fmt.Sprintf(format, args...))
}

// set stores a metric; a value that is not a finite number is a failed check
// (it cannot be printed, and it means a measurement is missing).
func (rf *resultFile) set(spec metricSpec, e estimate, withNoise bool) {
	if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
		rf.problem("%s is not a finite number", spec.Name)
		e = estimate{}
		withNoise = false
	}
	m := metricOut{Value: e.Value, Unit: spec.Unit, Better: spec.Better}
	if withNoise {
		q1, q3 := e.Q1, e.Q3
		m.Q1, m.Q3, m.Windows = &q1, &q3, e.Windows
	}
	rf.Metrics[spec.Name] = m
	rf.order = append(rf.order, spec.Name)
}

// finish settles the verdict once every metric and check is in.
func (rf *resultFile) finish() {
	if rf.Attempted < 1 {
		rf.Attempted = 1
	}
	rf.FailedShare = float64(rf.Failed) / float64(rf.Attempted)
	rf.Correct = rf.Failed == 0
}

func (rf *resultFile) write(path string) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

// contractLine is the result line the driver reads.
func (rf *resultFile) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rf.Correct, rf.Attempted, rf.Failed, map[string]mv{}}
	for name, m := range rf.Metrics {
		line.Metrics[name] = mv{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		// Only a non-finite float can fail, and set refuses those.
		panic(err)
	}
	return string(data)
}

// print writes the human report: every metric by name with unit, direction
// and noise, then the checks.
func (rf *resultFile) print(w io.Writer, path string) {
	p := rf.Provenance
	fmt.Fprintf(w, "\n== %s  seed=%d seconds=%g trace=%d  nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		p.Workload, p.Seed, p.Seconds, p.Trace, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit)
	for _, name := range rf.order {
		m := rf.Metrics[name]
		arrow := "↓"
		if m.Better == "higher" {
			arrow = "↑"
		}
		line := fmt.Sprintf("  %-34s %s %16s %-6s", name, arrow, sig(m.Value), m.Unit)
		if m.Q1 != nil {
			line += fmt.Sprintf("  quartiles [%s, %s] over %d", sig(*m.Q1), sig(*m.Q3), m.Windows)
			if spec, ok := endToEndSpec(name); ok {
				line += fmt.Sprintf("  bound %.2f", spec.Bound)
			}
		}
		fmt.Fprintln(w, line)
	}
	if rf.Samples > 0 {
		fmt.Fprintf(w, "  latency_tail_us is p%g; latency samples in the window (case run) with fewest: %d; windows dropped for lateness: %d\n",
			rf.TailPercentile, rf.Samples, rf.DroppedWindows)
	}
	for _, n := range rf.notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  failed_share %.3g  correct %v\n", rf.Attempted, rf.Failed, rf.FailedShare, rf.Correct)
	for _, pr := range rf.Problems {
		fmt.Fprintln(w, "  FAILED CHECK: "+pr)
	}
	fmt.Fprintf(w, "  result file: %s\n", path)
}

// params derives a workload run's knobs from the measured length. Everything
// scales with it, so a short smoke run exercises the same code.
func (rq request) params(measure time.Duration) runParams {
	warmup := 2 * time.Second
	if w := measure / 5; w < warmup {
		warmup = w
	}
	return runParams{
		seed:    rq.seed,
		measure: measure,
		warmup:  warmup,
		windows: 10,
		gens:    runtime.NumCPU(),
		setups:  setupRepeats[rq.workload],
		outDir:  rq.outDir,
	}
}

// setupRepeats is how many times a workload's set-up is repeated for the
// median behind setup_s (the case workloads sum their case runs instead).
var setupRepeats = map[string]int{wlFastpath: 101, wlContended: 101, wlWire: 51}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runWorkload dispatches one workload run.
func runWorkload(name string, rp runParams) (*runResult, error) {
	switch name {
	case wlFastpath:
		return runFastpath(rp)
	case wlContended:
		return runContended(rp)
	case wlWire:
		return runWire(rp)
	case wlRelieved, wlFlat:
		return runCases(name, rp)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (rq request) run(progress io.Writer) (*resultFile, error) {
	if rq.trace == 1 {
		return rq.runTraced(progress)
	}
	return rq.runEndToEnd()
}

// runEndToEnd is the --trace 0 run: the workload at full length, tracing
// off, every end-to-end metric.
func (rq request) runEndToEnd() (*resultFile, error) {
	res, err := runWorkload(rq.workload, rq.params(seconds(rq.seconds)))
	if err != nil {
		return nil, err
	}
	rf := newResultFile(rq.provenance())
	rf.absorb(res)
	for _, spec := range endToEnd {
		rf.set(spec, res.e2e[spec.Name], true)
	}
	for _, name := range sortedKeys(res.info) {
		e := res.info[name]
		rf.notes = append(rf.notes, fmt.Sprintf("%-34s   %16s us      quartiles [%s, %s] over %d  (not gated)", name, sig(e.Value), sig(e.Q1), sig(e.Q3), e.Windows))
		rf.Detail[name] = e
	}
	rf.finish()
	return rf, nil
}

// absorb takes over a run's counts, checks and detail.
func (rf *resultFile) absorb(res *runResult) {
	rf.Attempted += res.attempted
	rf.Failed += res.failed
	rf.Problems = append(rf.Problems, res.problems...)
	rf.DroppedWindows += res.dropped
	rf.TailPercentile, rf.Samples = res.tailPct, res.samples
	for k, v := range res.detail {
		rf.Detail[k] = v
	}
}

// sig prints a value with six significant digits: the metrics span twelve
// orders of magnitude.
func sig(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// splitList splits a comma-separated list, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
