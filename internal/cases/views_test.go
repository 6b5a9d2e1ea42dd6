package cases

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"
	"time"

	"pbox/internal/stats"
)

// The evaluation of Section 6 as views over cells, and the golden form of a
// cell. The lab (lab_test.go) runs the cells in virtual time and writes every
// view under testdata/lab; the tests in cases_test.go read the committed cells
// file, so the paper's claims are checked against exact numbers on every build.

// labDuration is every lab cell's length in virtual time.
const labDuration = 2 * time.Second

// labDir holds the lab's golden files.
var labDir = filepath.Join("testdata", "lab")

// row is what the golden cells file keeps of one cell's Outcome.
type row struct {
	Cell
	Victim, Noisy                      stats.Summary // count, mean, p50, p95, p99; the noisy side's count, mean, p95
	Actions, ScoreActions, GapActions  int
	Penalties                          int
	PenaltyMin, PenaltyP50, PenaltyMax time.Duration
	ConvergenceSteps                   float64
}

func rowOf(c Cell, o Outcome) row {
	r := row{
		Cell:    c.norm(),
		Victim:  stats.Summary{Count: o.Victim.Count, Mean: o.Victim.Mean, P50: o.Victim.P50, P95: o.Victim.P95, P99: o.Victim.P99},
		Noisy:   stats.Summary{Count: o.Noisy.Count, Mean: o.Noisy.Mean, P95: o.Noisy.P95},
		Actions: o.Actions, ScoreActions: o.ScoreActions, GapActions: o.GapActions,
		Penalties: len(o.PenaltyLengths), ConvergenceSteps: o.ConvergenceSteps,
	}
	if n := len(o.PenaltyLengths); n > 0 {
		r.PenaltyMin, r.PenaltyP50, r.PenaltyMax = o.PenaltyLengths[0], o.PenaltyLengths[n/2], o.PenaltyLengths[n-1]
	}
	return r
}

// cellsHeader names the columns of cells.txt; durations are in µs, to the ns.
const cellsHeader = "case\tsolution\tnoisy\tlevel\tvariant\tn\tmean\tp50\tp95\tp99\tnoisy_n\tnoisy_mean\tnoisy_p95\tactions\tscore\tgap\tpenalties\tpen_min\tpen_p50\tpen_max\tconvergence"

func (r row) fields() []string {
	us := func(d time.Duration) string { return strconv.FormatFloat(float64(d)/1e3, 'f', 3, 64) }
	variant := r.Variant
	if variant == "" {
		variant = "-"
	}
	return []string{
		r.Case, string(r.Solution), strconv.FormatBool(r.Interference),
		strconv.FormatFloat(r.Level, 'f', -1, 64), variant,
		strconv.Itoa(r.Victim.Count), us(r.Victim.Mean), us(r.Victim.P50), us(r.Victim.P95), us(r.Victim.P99),
		strconv.Itoa(r.Noisy.Count), us(r.Noisy.Mean), us(r.Noisy.P95),
		strconv.Itoa(r.Actions), strconv.Itoa(r.ScoreActions), strconv.Itoa(r.GapActions),
		strconv.Itoa(r.Penalties), us(r.PenaltyMin), us(r.PenaltyP50), us(r.PenaltyMax),
		strconv.FormatFloat(r.ConvergenceSteps, 'f', 3, 64),
	}
}

func parseRow(f []string) (r row, err error) {
	if len(f) != strings.Count(cellsHeader, "\t")+1 {
		return r, fmt.Errorf("%d fields", len(f))
	}
	num := func(s string) float64 {
		v, perr := strconv.ParseFloat(s, 64)
		if perr != nil && err == nil {
			err = perr
		}
		return v
	}
	us := func(s string) time.Duration { return time.Duration(math.Round(num(s) * 1e3)) }
	n := func(s string) int { return int(num(s)) }
	r.Case, r.Solution, r.Interference, r.Level, r.Variant = f[0], Solution(f[1]), f[2] == "true", num(f[3]), f[4]
	if r.Variant == "-" {
		r.Variant = ""
	}
	r.Victim = stats.Summary{Count: n(f[5]), Mean: us(f[6]), P50: us(f[7]), P95: us(f[8]), P99: us(f[9])}
	r.Noisy = stats.Summary{Count: n(f[10]), Mean: us(f[11]), P95: us(f[12])}
	r.Actions, r.ScoreActions, r.GapActions, r.Penalties = n(f[13]), n(f[14]), n(f[15]), n(f[16])
	r.PenaltyMin, r.PenaltyP50, r.PenaltyMax = us(f[17]), us(f[18]), us(f[19])
	r.ConvergenceSteps = num(f[20])
	return r, err
}

// sortedCells returns the cells a lab has run in Table 3 order, then by
// solution, noisy side, level and variant: the order of cells.txt.
func sortedCells(l *Lab) []Cell {
	order := make(map[string]int)
	for i, id := range caseIDs() {
		order[id] = i
	}
	cells := make([]Cell, 0, len(l.cells))
	for c := range l.cells {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		switch {
		case a.Case != b.Case:
			return order[a.Case] < order[b.Case]
		case a.Solution != b.Solution:
			return a.Solution < b.Solution
		case a.Interference != b.Interference:
			return !a.Interference
		case a.Level != b.Level:
			return a.Level < b.Level
		}
		return a.Variant < b.Variant
	})
	return cells
}

// formatCells renders rows as cells.txt.
func formatCells(rows []row) string {
	lines := make([][]string, len(rows))
	for i, r := range rows {
		lines[i] = r.fields()
	}
	return table(cellsHeader, lines)
}

// goldenCells reads the committed cells.txt, and returns a getter that fails
// the test on a cell the lab did not run.
func goldenCells(t *testing.T) func(Cell) row {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(labDir, "cells.txt"))
	if err != nil {
		t.Fatalf("golden cells (generate with: PBOX_REGEN_GOLDEN=1 GOEXPERIMENT=synctest go test -run Lab ./internal/cases): %v", err)
	}
	rows := make(map[Cell]row)
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		r, err := parseRow(strings.Fields(line))
		if err != nil {
			t.Fatalf("cells.txt line %d: %v", i+2, err)
		}
		rows[r.Cell] = r
	}
	return func(c Cell) row {
		t.Helper()
		r, ok := rows[c.norm()]
		if !ok {
			t.Fatalf("cell %+v is not in the golden cells", c)
		}
		return r
	}
}

// table aligns a tab-separated header and rows.
func table(header string, rows [][]string) string {
	var b bytes.Buffer
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, header)
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return b.String()
}

func to(id string) Cell               { return Cell{Case: id, Solution: SolutionNone} }
func ti(id string) Cell               { return Cell{Case: id, Solution: SolutionNone, Interference: true} }
func ts(id string, sol Solution) Cell { return Cell{Case: id, Solution: sol, Interference: true} }
func variant(id, v string) Cell {
	return Cell{Case: id, Solution: SolutionPBox, Interference: true, Variant: v}
}
func us(d time.Duration) string { return strconv.FormatFloat(float64(d)/1e3, 'f', 0, 64) }
func reduction(to, ti, ts time.Duration) string {
	return stats.FormatPct(stats.ReductionRatio(ti, to, ts))
}
func caseIDs() (ids []string) {
	for _, c := range Catalog() {
		ids = append(ids, c.ID)
	}
	return ids
}

// The case sets of the figures and tables that do not cover all 16.
var (
	penaltyCases  = []string{"c1", "c3", "c4", "c5", "c7", "c8", "c9", "c10"}       // Figures 13 and 14
	table4Cases   = []string{"c1", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10"} // Table 4
	fig15Cases    = []string{"c1", "c2", "c3", "c4", "c5", "c7", "c8", "c9", "c10", "c12"}
	fig15Levels   = []float64{0.25, 0.50, 0.75, 1.00, 1.25}
	mistakeCases  = []string{"c1", "c2", "c3", "c4", "c5"} // the MySQL cases, Section 6.8
	mistakeTrials = 5
	ablationCases = []string{"c5", "c12"}
	ablations     = []string{"", "no-pbox-level-monitor", "min-penalty-50us", "detection-off"}
)

// views are the lab's artifacts, each rendered from cells.
var views = []struct {
	file   string
	render func(get func(Cell) row) string
}{
	{"relief.txt", reliefView},
	{"table3.txt", table3View},
	{"fig11.txt", fig11View},
	{"fig12.txt", fig12View},
	{"fig13_14.txt", fig13View},
	{"table4.txt", table4View},
	{"fig15.txt", fig15View},
	{"mistakes.txt", mistakesView},
	{"ablations.txt", ablationsView},
}

// reliefView is the headline: the victim under To, Ti and pBox, and the
// relief r = (Ti − Ts)/(Ti − To) at the mean and at p95.
func reliefView(get func(Cell) row) string {
	var rows [][]string
	for _, id := range caseIDs() {
		o, i, s := get(to(id)), get(ti(id)), get(ts(id, SolutionPBox))
		rows = append(rows, []string{id,
			us(o.Victim.Mean), us(o.Victim.P95), us(i.Victim.Mean), us(i.Victim.P95), us(s.Victim.Mean), us(s.Victim.P95),
			reduction(o.Victim.Mean, i.Victim.Mean, s.Victim.Mean), reduction(o.Victim.P95, i.Victim.P95, s.Victim.P95),
			strconv.Itoa(s.Actions), strconv.Itoa(s.Penalties)})
	}
	return table("case\tTo mean\tTo p95\tTi mean\tTi p95\tTs mean\tTs p95\trelief mean\trelief p95\tactions\tpenalties\t(µs)", rows)
}

// table3View is Table 3: each case's interference level p = Ti/To − 1 on the
// victim's mean, beside the paper's.
func table3View(get func(Cell) row) string {
	var rows [][]string
	for _, c := range Catalog() {
		o, i := get(to(c.ID)), get(ti(c.ID))
		bug := "N"
		if c.Bug {
			bug = "Y"
		}
		rows = append(rows, []string{c.ID, c.App, bug, c.Resource, us(o.Victim.Mean), us(i.Victim.Mean),
			strconv.FormatFloat(stats.InterferenceLevel(i.Victim.Mean, o.Victim.Mean), 'f', 2, 64),
			strconv.FormatFloat(c.PaperLevel, 'f', 2, 64)})
	}
	return table("case\tapp\tbug\tresource\tTo (µs)\tTi (µs)\tlevel\tpaper", rows)
}

// solutionTable renders, per case, each solution's victim latency normalized
// to Ti and its reduction ratio, at the statistic pick chooses.
func solutionTable(get func(Cell) row, pick func(stats.Summary) time.Duration) string {
	header := "case\tTi (µs)"
	for _, sol := range Solutions() {
		header += "\t" + string(sol)
	}
	header += "\t|"
	for _, sol := range Solutions() {
		header += "\tr " + string(sol)
	}
	var rows [][]string
	for _, id := range caseIDs() {
		o, i := pick(get(to(id)).Victim), pick(get(ti(id)).Victim)
		r := []string{id, us(i)}
		var rs []string
		for _, sol := range Solutions() {
			s := pick(get(ts(id, sol)).Victim)
			r = append(r, strconv.FormatFloat(stats.NormalizedLatency(s, i), 'f', 2, 64))
			rs = append(rs, reduction(o, i, s))
		}
		rows = append(rows, append(append(r, "|"), rs...))
	}
	return table(header, rows)
}

// fig11View is Figure 11: mean victim latency under each solution, normalized
// to Ti, the reduction ratios, and the per-solution summary of Section 6.3.
func fig11View(get func(Cell) row) string {
	mean := func(s stats.Summary) time.Duration { return s.Mean }
	var rows [][]string
	for _, sol := range Solutions() {
		var rs []float64
		for _, id := range caseIDs() {
			rs = append(rs, stats.ReductionRatio(get(ti(id)).Victim.Mean, get(to(id)).Victim.Mean, get(ts(id, sol)).Victim.Mean))
		}
		s := summarize(rs)
		rows = append(rows, []string{string(sol), strconv.Itoa(s.helped), stats.FormatPct(s.avgHelped), stats.FormatPct(s.max),
			strconv.Itoa(s.worsened), stats.FormatPct(s.avgWorsened), stats.FormatPct(s.worst), stats.FormatPct(s.avgAll)})
	}
	return solutionTable(get, mean) + "\n" +
		table("solution\thelped\tavg\tmax\tnot helped\tavg\tworst\tavg over all", rows)
}

// fig12View is Figure 12: the same at the victim's p95.
func fig12View(get func(Cell) row) string {
	return solutionTable(get, func(s stats.Summary) time.Duration { return s.P95 })
}

// summary aggregates one solution's reduction ratios the way Sections 6.2
// and 6.3 report them: helped (r > 0) and not (r ≤ 0). A case with no
// interference to reduce (NaN) counts nowhere.
type summary struct {
	helped, worsened                   int
	avgHelped, max, avgWorsened, worst float64
	avgAll                             float64
}

func summarize(rs []float64) (s summary) {
	var helped, worsened, all []float64
	for _, r := range rs {
		if math.IsNaN(r) {
			continue
		}
		all = append(all, r)
		if r > 0 {
			helped = append(helped, r)
			s.max = max(s.max, r)
		} else {
			worsened = append(worsened, r)
			s.worst = min(s.worst, r)
		}
	}
	s.helped, s.worsened = len(helped), len(worsened)
	s.avgHelped, s.avgWorsened, s.avgAll = stats.Mean(helped), stats.Mean(worsened), stats.Mean(all)
	return s
}

// fig13View is Figures 13 and 14: pBox's actions by policy, the steps its
// penalty lengths took to converge, and their spread.
func fig13View(get func(Cell) row) string {
	var rows [][]string
	for _, id := range penaltyCases {
		s := get(ts(id, SolutionPBox))
		level := stats.InterferenceLevel(get(ti(id)).Victim.Mean, get(to(id)).Victim.Mean)
		rows = append(rows, []string{id, strconv.Itoa(s.Actions), strconv.Itoa(s.ScoreActions), strconv.Itoa(s.GapActions),
			strconv.FormatFloat(s.ConvergenceSteps, 'f', 1, 64), strconv.FormatFloat(level, 'f', 1, 64),
			us(s.PenaltyMin), us(s.PenaltyP50), us(s.PenaltyMax)})
	}
	return table("case\tactions\tscore\tgap\tconvergence\tlevel\tpenalty min\tp50\tmax (µs)", rows)
}

// table4View is Table 4: the victim's and the noisy side's mean latency under
// fixed 1 ms and 10 ms penalties and under the adaptive policies (the paper's
// 10 ms and 100 ms, scaled to this reproduction's µs–ms world).
func table4View(get func(Cell) row) string {
	var rows [][]string
	best := 0
	for _, id := range table4Cases {
		fs, fl, ad := get(variant(id, "fixed-1ms")), get(variant(id, "fixed-10ms")), get(ts(id, SolutionPBox))
		if ad.Victim.Mean < fs.Victim.Mean && ad.Victim.Mean < fl.Victim.Mean {
			best++
		}
		rows = append(rows, []string{id, us(fs.Victim.Mean), us(fl.Victim.Mean), us(ad.Victim.Mean),
			us(fs.Noisy.Mean), us(fl.Noisy.Mean), us(ad.Noisy.Mean)})
	}
	return table("case\tfixed 1ms\tfixed 10ms\tadaptive\tnoisy: fixed 1ms\tfixed 10ms\tadaptive (µs)", rows) +
		fmt.Sprintf("adaptive best on the victim in %d/%d cases\n", best, len(table4Cases))
}

// fig15View is Figure 15: the mean reduction ratio under relative isolation
// rules from 25% to 125%.
func fig15View(get func(Cell) row) string {
	header := "case"
	for _, l := range fig15Levels {
		header += fmt.Sprintf("\t%.0f%%", l*100)
	}
	var rows [][]string
	for _, id := range fig15Cases {
		o, i := get(to(id)).Victim.Mean, get(ti(id)).Victim.Mean
		r := []string{id}
		for _, l := range fig15Levels {
			c := ts(id, SolutionPBox)
			c.Level = l
			r = append(r, reduction(o, i, get(c).Victim.Mean))
		}
		rows = append(rows, r)
	}
	return table(header, rows)
}

// mistakesView is Section 6.8: the MySQL cases with 10% of the update sites
// removed, five seeds each, beside the reduction with every site in place.
func mistakesView(get func(Cell) row) string {
	var rows [][]string
	for _, id := range mistakeCases {
		o, i := get(to(id)).Victim.Mean, get(ti(id)).Victim.Mean
		r := []string{id, reduction(o, i, get(ts(id, SolutionPBox)).Victim.Mean)}
		var rs []float64
		for seed := 1; seed <= mistakeTrials; seed++ {
			rs = append(rs, stats.ReductionRatio(i, o, get(variant(id, fmt.Sprintf("drop-%d", seed))).Victim.Mean))
			r = append(r, stats.FormatPct(rs[len(rs)-1]))
		}
		s := summarize(rs)
		rows = append(rows, append(r, stats.FormatPct(s.avgAll), fmt.Sprintf("%d/%d", s.helped, mistakeTrials)))
	}
	return table("case\tcorrect\tdrop-1\tdrop-2\tdrop-3\tdrop-4\tdrop-5\tdropped avg\tpositive", rows)
}

// ablationsView runs pBox with one mechanism removed or detuned: without the
// pBox-level monitor, with a penalty floor below the wait loops' poll, and
// with detection off (tracing only).
func ablationsView(get func(Cell) row) string {
	var rows [][]string
	for _, id := range ablationCases {
		o, i := get(to(id)).Victim.Mean, get(ti(id)).Victim.Mean
		for _, v := range ablations {
			s := get(variant(id, v))
			name := v
			if name == "" {
				name = "full"
			}
			rows = append(rows, []string{id, name, us(s.Victim.Mean), reduction(o, i, s.Victim.Mean), strconv.Itoa(s.Actions)})
		}
	}
	return table("case\tvariant\tvictim mean (µs)\treduction\tactions", rows)
}

// seriesView renders a motivation figure's time series: bucket start, sample
// count and mean latency.
func seriesView(pts []stats.Point) string {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{strconv.FormatInt(p.T.Milliseconds(), 10), strconv.Itoa(p.Count), strconv.FormatFloat(p.Mean, 'f', 3, 64)})
	}
	return table("t (ms)\tcount\tmean (ms)", rows)
}
