package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"pbox/internal/cases"
	"pbox/internal/core"
	"pbox/internal/exec"
)

// The two case workloads: the paper's mini-applications under interference
// with pBox, real penalties slept. The case runs play the part of the
// windows: every case runs once per pass, there are two passes, and a
// metric's value is the mean of the two passes' geometric means over the
// cases, with the two passes as its noise estimate.

const casePasses = 2

// caseOutcome is one cases.Run with its wall time; err is set when the run
// panicked or recorded no victim sample.
type caseOutcome struct {
	id   string
	out  cases.Outcome
	wall time.Duration
	dur  time.Duration
	err  error
}

// runCase executes one case run, turning a panic into an error.
func runCase(id string, rc cases.RunConfig) (co caseOutcome) {
	co = caseOutcome{id: id, dur: rc.Duration}
	c, ok := cases.ByID(id)
	if !ok {
		co.err = fmt.Errorf("no case %s in the catalog", id)
		return co
	}
	defer func() {
		if r := recover(); r != nil {
			co.err = fmt.Errorf("case %s panicked: %v", id, r)
		}
	}()
	t0 := exec.Now()
	co.out = cases.Run(c, rc)
	co.wall = time.Duration(exec.Now() - t0)
	if co.out.Victim.Count == 0 {
		co.err = fmt.Errorf("case %s recorded no victim sample", id)
	}
	return co
}

func pboxInterfered(d time.Duration, opts core.Options) cases.RunConfig {
	return cases.RunConfig{Solution: cases.SolutionPBox, Interference: true, Duration: d, ManagerOptions: opts}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// casePass folds one pass over the cases into the four request-level figures.
type casePass struct {
	throughput, mean, tail, p50, p99 []float64 // one entry per case
}

func (p *casePass) add(co caseOutcome) {
	v := co.out.Victim
	p.throughput = append(p.throughput, float64(v.Count)/co.dur.Seconds())
	p.mean = append(p.mean, us(v.Mean))
	p.tail = append(p.tail, us(v.P95))
	p.p50 = append(p.p50, us(v.P50))
	p.p99 = append(p.p99, us(v.P99))
}

// runCases is the cases_relieved / cases_flat workload body.
func runCases(name string, rp runParams) (*runResult, error) {
	ids := caseSets[name]
	rng := rand.New(rand.NewSource(rp.seed))
	res := newRunResult()
	d := rp.measure / time.Duration(casePasses*len(ids))
	passes := make([]casePass, casePasses)
	perCase := map[string][]float64{}
	var overhead time.Duration
	minSamples := math.MaxInt
	for pass := range passes {
		order := append([]string(nil), ids...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, id := range order {
			co := runCase(id, pboxInterfered(d, core.Options{}))
			res.attempted += int64(co.out.Victim.Count)
			if co.err != nil {
				res.fail(1, "%v", co.err)
				continue
			}
			overhead += co.wall - co.dur
			passes[pass].add(co)
			perCase[id] = append(perCase[id], us(co.out.Victim.P95))
			if co.out.Victim.Count < minSamples {
				minSamples = co.out.Victim.Count
			}
		}
	}
	if res.attempted == 0 {
		res.attempted = 1
	}
	fold := func(pick func(*casePass) []float64) estimate {
		var g []float64
		for i := range passes {
			g = append(g, geomean(pick(&passes[i])))
		}
		return estimateOf(g)
	}
	res.e2e[mThroughput] = fold(func(p *casePass) []float64 { return p.throughput })
	res.info[infoP50] = fold(func(p *casePass) []float64 { return p.p50 })
	res.info[infoP99] = fold(func(p *casePass) []float64 { return p.p99 })
	res.e2e[mMean] = fold(func(p *casePass) []float64 { return p.mean })
	res.e2e[mTail] = fold(func(p *casePass) []float64 { return p.tail })
	res.e2e[mSetup] = estimate{Value: overhead.Seconds(), Q1: overhead.Seconds(), Q3: overhead.Seconds(), Windows: casePasses * len(ids)}
	res.tailPct = 95
	res.samples = minSamples
	// Each case's p95 with the half-difference of its two runs as its noise.
	detail := map[string]any{}
	for id, v := range perCase {
		if len(v) == casePasses {
			detail[id] = map[string]float64{"victim_p95_us": (v[0] + v[1]) / 2, "half_diff_us": math.Abs(v[0]-v[1]) / 2}
		}
	}
	res.detail["cases"] = detail
	res.detail["case_run_seconds"] = d.Seconds()
	res.detail["min_victim_samples"] = minSamples
	return res, nil
}

// Episode tracing. The traced run hands the case's manager an observer and a
// Sleep wrapper of the benchmark's own (through RunConfig.ManagerOptions) and
// rebuilds, from the callbacks alone, one span per activity with its waits,
// holds and served penalties as children, and the stages of each interference
// episode: blamed PREPARE → Detection → PenaltyAction → penalty start →
// penalty end.

type evKind uint8

const (
	evState evKind = iota
	evActivated
	evFrozen
	evDetection
	evAction
	evServed
	evSleep
)

// rawEvent is one callback as recorded. at is manager-clock time for state
// and lifecycle events (they carry it) and exec.Now at the callback for the
// rest; both are the same clock under the default Options.Now.
type rawEvent struct {
	kind  evKind
	ev    core.EventType
	pbox  int
	other int // victim id on detections and actions
	key   core.ResourceKey
	at    int64
	d     int64 // penalty length asked (action, served, sleep)
	spent int64 // sleep: wall time the sleep actually took
}

// episodeObserver implements core.Observer, core.EventTimeObserver and
// core.LifecycleObserver by appending to a slice under its own mutex: fast,
// never blocking on the manager, never calling back into it.
type episodeObserver struct {
	mu  sync.Mutex
	evs []rawEvent
}

func (o *episodeObserver) record(e rawEvent) {
	o.mu.Lock()
	o.evs = append(o.evs, e)
	o.mu.Unlock()
}

func (o *episodeObserver) PBoxCreated(int, core.IsolationRule) {}
func (o *episodeObserver) PBoxReleased(int)                    {}
func (o *episodeObserver) ActivityEnd(int, int64, int64)       {}
func (o *episodeObserver) PBoxSharedChanged(int, bool)         {}

func (o *episodeObserver) StateEvent(id int, key core.ResourceKey, ev core.EventType) {
	o.StateEventAt(id, key, ev, exec.Now())
}

func (o *episodeObserver) StateEventAt(id int, key core.ResourceKey, ev core.EventType, at int64) {
	o.record(rawEvent{kind: evState, ev: ev, pbox: id, key: key, at: at})
}

func (o *episodeObserver) PBoxActivated(id int, at int64) {
	o.record(rawEvent{kind: evActivated, pbox: id, at: at})
}

func (o *episodeObserver) PBoxFrozen(id int, at int64) {
	o.record(rawEvent{kind: evFrozen, pbox: id, at: at})
}

func (o *episodeObserver) Detection(noisy, victim int, key core.ResourceKey, _ float64) {
	o.record(rawEvent{kind: evDetection, pbox: noisy, other: victim, key: key, at: exec.Now()})
}

func (o *episodeObserver) PenaltyAction(noisy, victim int, key core.ResourceKey, _ core.PolicyKind, length time.Duration) {
	o.record(rawEvent{kind: evAction, pbox: noisy, other: victim, key: key, at: exec.Now(), d: int64(length)})
}

func (o *episodeObserver) PenaltyServed(id int, d time.Duration) {
	o.record(rawEvent{kind: evServed, pbox: id, at: exec.Now(), d: int64(d)})
}

// sleep is the Options.Sleep wrapper: the real precise sleep, timed.
func (o *episodeObserver) sleep(d time.Duration) {
	t0 := exec.Now()
	exec.SleepPrecise(d)
	o.record(rawEvent{kind: evSleep, at: t0, d: int64(d), spent: exec.Now() - t0})
}

// options returns manager options that route callbacks and penalties here.
func (o *episodeObserver) options() core.Options {
	return core.Options{Observer: o, Sleep: o.sleep}
}

// episodes are the stage samples (ns) rebuilt from one or more traced runs.
type episodes struct {
	detectDelay  []int64 // victim's blamed PREPARE → Detection
	penaltyDelay []int64 // PenaltyAction → the penalty sleep starts
	overshoot    []int64 // sleep wall time − length asked
	servedNs     int64   // total penalty length served
}

type openActivity struct {
	id    uint64
	start int64
}

type openHold struct {
	since int64
	count int
}

// buildCaseSpans rebuilds spans and episode stages from one traced case run.
// idBase keeps span IDs of different runs apart.
func buildCaseSpans(evs []rawEvent, idBase uint64, ep *episodes) []span {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	var spans []span
	next := idBase
	newID := func() uint64 { next++; return next }
	act := map[int]openActivity{}
	waits := map[int]map[core.ResourceKey]int64{}
	holds := map[int]map[core.ResourceKey]openHold{}
	lastAction := map[int]int64{}
	var sleeps []rawEvent // not yet matched to their PenaltyServed
	child := func(name uint8, pbox int, start, end int64) {
		spans = append(spans, span{ID: newID(), Parent: act[pbox].id, Start: start, End: end, Name: name})
	}
	for _, e := range evs {
		switch e.kind {
		case evActivated:
			act[e.pbox] = openActivity{id: newID(), start: e.at}
		case evFrozen:
			a, ok := act[e.pbox]
			if !ok {
				continue
			}
			// Waits and holds the activity left open end with it.
			for _, at := range waits[e.pbox] {
				child(spWait, e.pbox, at, e.at)
			}
			for _, h := range holds[e.pbox] {
				child(spHold, e.pbox, h.since, e.at)
			}
			delete(waits, e.pbox)
			delete(holds, e.pbox)
			spans = append(spans, span{ID: a.id, Start: a.start, End: e.at, Name: spCaseActivity})
			delete(act, e.pbox)
		case evState:
			switch e.ev {
			case core.Prepare:
				if waits[e.pbox] == nil {
					waits[e.pbox] = map[core.ResourceKey]int64{}
				}
				waits[e.pbox][e.key] = e.at
			case core.Enter:
				if at, ok := waits[e.pbox][e.key]; ok {
					child(spWait, e.pbox, at, e.at)
					delete(waits[e.pbox], e.key)
				}
			case core.Hold:
				if holds[e.pbox] == nil {
					holds[e.pbox] = map[core.ResourceKey]openHold{}
				}
				h := holds[e.pbox][e.key]
				if h.count == 0 {
					h.since = e.at
				}
				h.count++
				holds[e.pbox][e.key] = h
			case core.Unhold:
				h, ok := holds[e.pbox][e.key]
				if !ok {
					continue
				}
				if h.count--; h.count > 0 {
					holds[e.pbox][e.key] = h
					continue
				}
				child(spHold, e.pbox, h.since, e.at)
				delete(holds[e.pbox], e.key)
			}
		case evDetection:
			if at, ok := waits[e.other][e.key]; ok && e.at >= at {
				ep.detectDelay = append(ep.detectDelay, e.at-at)
			}
		case evAction:
			lastAction[e.pbox] = e.at
		case evSleep:
			sleeps = append(sleeps, e)
			ep.overshoot = append(ep.overshoot, e.spent-e.d)
		case evServed:
			ep.servedNs += e.d
			// The sleep this callback reports is the latest unmatched one of
			// the same length that ended before it.
			for i := len(sleeps) - 1; i >= 0; i-- {
				s := sleeps[i]
				if s.d != e.d || s.at+s.spent > e.at {
					continue
				}
				child(spPenalty, e.pbox, s.at, s.at+s.spent)
				if at, ok := lastAction[e.pbox]; ok && s.at >= at {
					ep.penaltyDelay = append(ep.penaltyDelay, s.at-at)
					delete(lastAction, e.pbox)
				}
				sleeps = append(sleeps[:i], sleeps[i+1:]...)
				break
			}
		}
	}
	return spans
}

func p50ns(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(percentile(s, 50))
}

// tracedCases is what the traced run learns about a set of cases.
type tracedCases struct {
	layers      map[string]float64
	spans       []span
	problems    []string
	overheadPct float64 // traced vs untraced victim mean; NaN unless withUntraced
	episodeNote string
}

// traceCases runs every listed case at length d in three configurations —
// uninterfered baseline, interfered without pBox, interfered with pBox and
// the episode observer — and, when withUntraced is set, a fourth run with
// pBox and no observer so the tracing overhead can be read off. It fills the
// per-case and episode layer metrics.
func traceCases(ids []string, d time.Duration, withUntraced bool) tracedCases {
	tc := tracedCases{layers: map[string]float64{}, overheadPct: math.NaN()}
	var ep episodes
	var actions int
	var total time.Duration
	var noisy, tracedMean, plainMean []float64
	for i, id := range ids {
		base := runCase(id, cases.RunConfig{Solution: cases.SolutionNone, Duration: d})
		hurt := runCase(id, cases.RunConfig{Solution: cases.SolutionNone, Interference: true, Duration: d})
		obs := &episodeObserver{evs: make([]rawEvent, 0, 1<<16)}
		traced := runCase(id, pboxInterfered(d, obs.options()))
		for _, co := range []caseOutcome{base, hurt, traced} {
			if co.err != nil {
				tc.problems = append(tc.problems, co.err.Error())
			}
		}
		to, ti, ts := us(base.out.Victim.P95), us(hurt.out.Victim.P95), us(traced.out.Victim.P95)
		tc.layers["cases.victim_p95_us."+id] = ts
		// (Ti−Ts)/(Ti−To), never clamped: harm reads negative. Without
		// measurable interference the ratio has no meaning and reads 0.
		if ti-to > 0 {
			tc.layers["cases.relief_p95."+id] = (ti - ts) / (ti - to)
		} else {
			tc.layers["cases.relief_p95."+id] = 0
		}
		obs.mu.Lock()
		tc.spans = append(tc.spans, buildCaseSpans(obs.evs, uint64(i+1)*spanBufStride, &ep)...)
		obs.mu.Unlock()
		actions += traced.out.Actions
		total += d
		if traced.out.Noisy.Count > 0 {
			noisy = append(noisy, us(traced.out.Noisy.Mean))
		}
		if withUntraced {
			plain := runCase(id, pboxInterfered(d, core.Options{}))
			if plain.err != nil {
				tc.problems = append(tc.problems, plain.err.Error())
			}
			tracedMean = append(tracedMean, us(traced.out.Victim.Mean))
			plainMean = append(plainMean, us(plain.out.Victim.Mean))
		}
	}
	if len(ids) == 0 {
		return tc
	}
	tc.layers["cases.actions_per_s"] = float64(actions) / total.Seconds()
	tc.layers["cases.penalty_served_ms_per_s"] = float64(ep.servedNs) / 1e6 / total.Seconds()
	tc.layers["cases.detect_delay_p50_us"] = p50ns(ep.detectDelay) / 1e3
	tc.layers["cases.penalty_delay_p50_us"] = p50ns(ep.penaltyDelay) / 1e3
	tc.layers["cases.penalty_overshoot_p50_us"] = p50ns(ep.overshoot) / 1e3
	if g := geomean(noisy); !math.IsNaN(g) {
		tc.layers["cases.noisy_mean_us"] = g
	}
	if withUntraced {
		tc.overheadPct = (geomean(tracedMean)/geomean(plainMean) - 1) * 100
	}
	tc.episodeNote = fmt.Sprintf("%d detections with a blamed wait, %d penalties matched to their action, %d penalty sleeps",
		len(ep.detectDelay), len(ep.penaltyDelay), len(ep.overshoot))
	return tc
}
