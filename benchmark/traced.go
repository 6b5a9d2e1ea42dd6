package main

import (
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
)

// The traced run (--trace 1). It surveys every layer: all five workloads run
// with spans recorded around each call into a layer, then the probes. The
// workload named on the command line is the focus: it gets the long traced
// segment, an untraced reference segment on the same set-up environment, the
// tracing overhead, and the check that its stage sum reconciles with the
// untraced end-to-end figure. The other workloads run short, so that every
// per-layer metric is measured in every traced run; for a steady reading of
// a layer's number, trace the workload that owns it (README.md says which).

const (
	focusShare     = 0.4  // of --seconds: the focus workload's traced segment
	refShare       = 0.2  // of --seconds: its untraced reference segment
	surveyShare    = 0.05 // of --seconds: every other event workload's traced segment
	caseFocusShare = 1.5  // of --seconds: the focus case workload's runs (four per case) together
	caseSurveyLen  = 1.0 / 80
	reconcileBound = 0.15
)

// stage is one row of a workload's budget table.
type stage struct {
	name string
	ns   float64 // mean self time per request
}

// budget is ROADMAP item 1(b)'s table for one kind of request, from outside:
// the stages' self times next to the end-to-end figure they must add up to.
type budget struct {
	request string
	stages  []stage
	endNs   float64 // mean untraced request of the same segment: what the stage sum must reconcile with
	refNs   float64 // mean request of the untraced reference segment (NaN when there was none)
}

func (b budget) sum() float64 {
	var s float64
	for _, st := range b.stages {
		s += st.ns
	}
	return s
}

// gap is how far the stage sum is from the end-to-end figure of the untraced
// requests interleaved with the traced ones, as a share of the latter.
func (b budget) gap() float64 { return math.Abs(b.sum()-b.endNs) / b.endNs }

func (b budget) print(w io.Writer) {
	fmt.Fprintf(w, "  budget of one %s:\n", b.request)
	for _, st := range b.stages {
		fmt.Fprintf(w, "    %-34s %12.1f ns  %5.1f%%\n", st.name, st.ns, 100*st.ns/b.sum())
	}
	fmt.Fprintf(w, "    %-34s %12.1f ns\n", "stage sum", b.sum())
	fmt.Fprintf(w, "    %-34s %12.1f ns   gap %.1f%% (bound %.0f%%)\n", "untraced end to end", b.endNs, 100*b.gap(), 100*reconcileBound)
	if !math.IsNaN(b.refNs) {
		fmt.Fprintf(w, "    %-34s %12.1f ns\n", "untraced reference segment", b.refNs)
	}
}

// requestRoots maps a request kind to its root span, its child stages, and
// what the root's own time is: on an activity the 16 Worker.Update calls
// (see tracedActivity for why they have no span of their own), elsewhere the
// generator's loop.
var requestRoots = map[string]struct {
	root     uint8
	children []uint8
	rest     string
}{
	"activity":   {spActivity, []uint8{spActivate, spFreeze}, spanNames[spWorkerUpdate]},
	"pair_cycle": {spPairCycle, []uint8{spActivate, spTierBUpdate, spFreeze}, "generator"},
	"batch":      {spBatch, []uint8{spEncode, spFlush, spPing}, "generator"},
}

// budgets builds one budget per request kind the run timed. Spans of
// different request kinds share child names (core.activate under both an
// activity and a pair cycle), so self times are taken per root kind.
func budgets(spans []span, res *runResult) []budget {
	byRoot := map[uint64]uint8{}
	for _, s := range spans {
		if s.Parent == 0 {
			byRoot[s.ID] = s.Name
		}
	}
	var out []budget
	for _, kind := range sortedKeys(res.requestNs) {
		rr := requestRoots[kind]
		var own []span
		for _, s := range spans {
			if (s.Parent == 0 && s.Name == rr.root) || (s.Parent != 0 && byRoot[s.Parent] == rr.root) {
				own = append(own, s)
			}
		}
		lt := selfTimes(own)
		roots := float64(lt[rr.root].Count)
		if roots == 0 {
			continue
		}
		b := budget{request: kind, endNs: res.requestNs[kind], refNs: math.NaN()}
		if res.ref != nil {
			b.refNs = res.ref.requestNs[kind]
		}
		// A child's stage is its mean self time per occurrence (activity
		// children are recorded on alternate roots); the root's own time is
		// what the children leave of the mean root.
		rest := float64(lt[rr.root].SpanNs) / roots
		for _, c := range rr.children {
			ns := lt[c].meanSelf()
			b.stages = append(b.stages, stage{spanNames[c], ns})
			rest -= ns
		}
		b.stages = append(b.stages, stage{rr.rest + " (root self)", rest})
		out = append(out, b)
	}
	return out
}

func stageNs(bs []budget, request, name string) float64 {
	for _, b := range bs {
		if b.request != request {
			continue
		}
		for _, st := range b.stages {
			if st.name == name {
				return st.ns
			}
		}
	}
	return math.NaN()
}

// runTraced is the --trace 1 run.
func (rq request) runTraced(progress io.Writer) (*resultFile, error) {
	rf := newResultFile(rq.provenance())
	layers := map[string]float64{}
	merge := func(m map[string]float64) { maps.Copy(layers, m) }
	step := func(format string, args ...any) {
		fmt.Fprintf(progress, "traced run: "+format+"\n", args...)
	}
	overhead := math.NaN()
	var focusSpans []span
	var focusDropped int64
	var fastpathRate, batchNs float64

	for _, name := range []string{wlFastpath, wlContended, wlWire} {
		focus := name == rq.workload
		measure := seconds(rq.seconds * surveyShare)
		if focus {
			measure = seconds(rq.seconds * focusShare)
		}
		step("%s, %v traced", name, measure)
		rp := rq.params(measure)
		rp.setups = 1
		rp.tr = &tracer{}
		if focus {
			rp.refMeasure = seconds(rq.seconds * refShare)
		}
		res, err := runWorkload(name, rp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rf.Failed += res.failed
		for _, p := range res.problems {
			rf.Problems = append(rf.Problems, name+": "+p)
		}
		if focus {
			rf.Attempted += res.attempted
		}
		merge(res.layers)
		spans, dropped := rp.tr.all()
		bs := budgets(spans, res)
		rf.notes = append(rf.notes, fmt.Sprintf("%s: %d spans recorded, %d dropped", name, len(spans), dropped))
		for _, b := range bs {
			b.print(progress)
			// The short survey segments are too brief for the gate.
			if focus && b.gap() > reconcileBound {
				rf.problem("%s: stage sum %.0f ns and untraced end-to-end %.0f ns of one %s differ by %.1f%% (bound %.0f%%)",
					name, b.sum(), b.endNs, b.request, 100*b.gap(), 100*reconcileBound)
			}
		}
		switch name {
		case wlFastpath:
			layers["core.activate_ns"] = stageNs(bs, "activity", spanNames[spActivate])
			layers["core.worker_update_ns"] = stageNs(bs, "activity", spanNames[spWorkerUpdate]+" (root self)") / eventsPerActivity
			layers["core.freeze_ns"] = stageNs(bs, "activity", spanNames[spFreeze])
			fastpathRate = res.e2e[mThroughput].Value
		case wlContended:
			layers["core.tier_b_update_ns"] = stageNs(bs, "pair_cycle", spanNames[spTierBUpdate]) / eventsPerCycle
		case wlWire:
			layers["wire.encode_ns_per_event"] = stageNs(bs, "batch", spanNames[spEncode]) / eventsPerBatch
			layers["wire.flush_us"] = stageNs(bs, "batch", spanNames[spFlush]) / 1e3
			batchNs = res.requestNs["batch"]
		}
		if focus {
			overhead = (1 - res.e2e[mThroughput].Value/res.ref.throughput) * 100
			focusSpans, focusDropped = spans, dropped
		}
	}

	// One goroutine on the same loop: what the activity cycle does alone.
	{
		rp := rq.params(seconds(rq.seconds * surveyShare))
		rp.setups, rp.gens = 1, 1
		step("%s on one goroutine, %v", wlFastpath, rp.measure)
		res, err := runFastpath(rp)
		if err != nil {
			return nil, fmt.Errorf("one-goroutine loop: %w", err)
		}
		g1 := res.e2e[mThroughput].Value
		layers["core.events_per_s_g1"] = g1
		layers["core.scaling_efficiency"] = fastpathRate / (float64(runtime.NumCPU()) * g1)
	}

	// The cases: the focus workload's at length with an untraced twin, the
	// rest short.
	var survey []string
	for _, id := range allCases {
		if !slices.Contains(caseSets[rq.workload], id) {
			survey = append(survey, id)
		}
	}
	d := seconds(rq.seconds * caseSurveyLen)
	step("%d cases × 3 configurations, %v each", len(survey), d)
	tc := traceCases(survey, d, false)
	merge(tc.layers)
	for _, p := range tc.problems {
		rf.problem("%s", p)
	}
	rf.notes = append(rf.notes, "case episodes (survey): "+tc.episodeNote)
	if ids := caseSets[rq.workload]; ids != nil {
		d := seconds(rq.seconds * caseFocusShare / float64(4*len(ids)))
		step("%s: %d cases × 4 configurations, %v each", rq.workload, len(ids), d)
		tc := traceCases(ids, d, true)
		merge(tc.layers) // the focus set's episode figures replace the survey's
		for _, p := range tc.problems {
			rf.problem("%s", p)
		}
		rf.notes = append(rf.notes, "case episodes ("+rq.workload+"): "+tc.episodeNote)
		overhead = tc.overheadPct
		focusSpans = tc.spans
		rf.Attempted += int64(len(ids))
		printCaseBudget(progress, tc.spans)
	}

	step("probes")
	rng := rand.New(rand.NewSource(rq.seed))
	daemonNs, err := probeObserverChain(rng, rq.outDir, layers)
	if err != nil {
		return nil, fmt.Errorf("observer-chain probe: %w", err)
	}
	if err := probeReads(rng, rq.outDir, layers); err != nil {
		return nil, fmt.Errorf("read-path probe: %w", err)
	}
	if err := probeLifecycle(layers); err != nil {
		return nil, fmt.Errorf("lifecycle probe: %w", err)
	}
	rttNs, err := probeWireIdle(rng, rq.outDir, layers)
	if err != nil {
		return nil, fmt.Errorf("idle-wire probe: %w", err)
	}
	{
		// One activity per barrier: per-frame cost dominates.
		rp := rq.params(seconds(rq.seconds * surveyShare))
		rp.setups = 1
		res, err := runWireBatches(rp, 1)
		if err != nil {
			return nil, fmt.Errorf("small-batch probe: %w", err)
		}
		layers["wire.small_batch_events_per_s"] = res.e2e[mThroughput].Value
	}
	// What the wire adds per event beyond the round trip and the manager's
	// own work under the same options.
	layers["wire.residual_ns_per_event"] = (batchNs-rttNs)/eventsPerBatch - daemonNs
	probeIsolation(layers)
	probeExec(layers)
	layers["trace.overhead_pct"] = overhead

	for _, spec := range perLayer {
		v, ok := layers[spec.Name]
		if !ok {
			v = math.NaN()
		}
		rf.set(spec, estimate{Value: v}, false)
	}
	spanPath := filepath.Join(rq.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", rq.workload, rq.seed))
	if err := writeSpans(spanPath, focusSpans, focusDropped); err != nil {
		return nil, err
	}
	rf.notes = append(rf.notes, fmt.Sprintf("spans of %s: %s", rq.workload, spanPath))
	rf.finish()
	return rf, nil
}

// printCaseBudget prints where the case activities' time went: the mean
// activity with its waits, holds and served penalties. The victims' request
// latency is measured by the mini-applications themselves, around more than
// the activity, so this table is shown, not gated.
func printCaseBudget(w io.Writer, spans []span) {
	lt := selfTimes(spans)
	acts := float64(lt[spCaseActivity].Count)
	if acts == 0 {
		return
	}
	fmt.Fprintf(w, "  budget of one case activity (%d activities, all pBoxes; waits and holds overlap, and penalties\n", int64(acts))
	fmt.Fprintf(w, "  served between activities are counted, so the rows need not add up to the activity):\n")
	for _, name := range []uint8{spWait, spHold, spPenalty} {
		fmt.Fprintf(w, "    %-22s %12.1f ns  (%d spans)\n", spanNames[name], float64(lt[name].SelfNs)/acts, lt[name].Count)
	}
	fmt.Fprintf(w, "    %-22s %12.1f ns\n", "activity self", float64(lt[spCaseActivity].SelfNs)/acts)
	fmt.Fprintf(w, "    %-22s %12.1f ns\n", "activity end to end", float64(lt[spCaseActivity].SpanNs)/acts)
}
