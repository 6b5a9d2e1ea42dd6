// Command pboxctl is the operator's diagnosis CLI for a running pboxd (or
// any process serving the telemetry HTTP API). It turns the raw endpoints
// into the workflow an on-call engineer actually follows when a latency SLO
// burns:
//
//	pboxctl top                    # live culprit ranking — who hurts whom
//	pboxctl top -once              # one sample, no screen refresh
//	pboxctl pboxes                 # per-pBox defer ratios vs. goals
//	pboxctl self                   # manager self-telemetry: snapshot/spool/lock rates
//	pboxctl incidents list         # flight-recorder bundles on the server
//	pboxctl incidents show <id>    # one bundle: verdict, events, matrix
//	pboxctl dump -reason "..."     # freeze a bundle right now
//	pboxctl trace -follow          # stream manager events (long-poll)
//
// top and pboxes read the manager's epoch-published snapshot (/status), so
// watching them at any refresh rate never takes a shard lock or flushes a
// worker spool inside the target; each sample reports the snapshot's epoch
// and age so the operator knows how stale the view is (bounded by the
// manager's snapshot interval, 100ms by default).
//
// All subcommands take -addr (default 127.0.0.1:7070), matching pboxd's
// -http flag.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"pbox/internal/flightrec"
	"pbox/internal/telemetry"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 || args[0] == "-h" || args[0] == "-help" || args[0] == "help" {
		usage()
		os.Exit(2)
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "top":
		err = cmdTop(rest)
	case "pboxes":
		err = cmdPBoxes(rest)
	case "self":
		err = cmdSelf(rest)
	case "incidents":
		err = cmdIncidents(rest)
	case "dump":
		err = cmdDump(rest)
	case "trace":
		err = cmdTrace(rest)
	default:
		fmt.Fprintf(os.Stderr, "pboxctl: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pboxctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: pboxctl <command> [flags]

commands:
  top        live culprit ranking from the snapshot's attribution matrix
             (watch mode; -once for a single sample, -interval for the rate)
  pboxes     per-pBox states, defer ratios, goals, and penalties
  self       manager self-telemetry: snapshot, spool, contention, lock rates
  incidents  list | show <id> — flight-recorder bundles
  dump       freeze an incident bundle now (-reason "...")
  trace      print the manager event trace (-follow to stream)

common flags:
  -addr host:port   telemetry address of the target process (default 127.0.0.1:7070)
`)
}

// flagSet builds a subcommand FlagSet with the shared -addr flag.
func flagSet(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "telemetry address of the target process")
	return fs, addr
}

// getJSON fetches a path from the target and decodes the JSON payload.
func getJSON(addr, path string, v any) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// name renders a pBox reference as its label when set, else pbox-<id>.
func name(label string, id int) string {
	if label != "" {
		return label
	}
	return fmt.Sprintf("pbox-%d", id)
}

// cmdTop renders the culprit ranking. Default is watch mode: redraw every
// interval until interrupted.
func cmdTop(args []string) error {
	fs, addr := flagSet("top")
	once := fs.Bool("once", false, "print one sample and exit")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval in watch mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		resp telemetry.StatusResponse
		top  topRenderer
	)
	for {
		// Reuse the response and renderer buffers across refreshes: length
		// reset keeps the backing arrays, so a steady-state tick decodes and
		// renders without reallocating per refresh.
		resp.PBoxes = resp.PBoxes[:0]
		resp.Matrix = resp.Matrix[:0]
		resp.Resources = resp.Resources[:0]
		resp.Dropped = 0
		if err := getJSON(*addr, "/status", &resp); err != nil {
			return err
		}
		if !*once {
			fmt.Print("\033[2J\033[H") // clear screen, home cursor
		}
		top.render(os.Stdout, resp)
		if *once {
			return nil
		}
		time.Sleep(*interval)
	}
}

// culpritRank is one aggregated culprit row in the top view.
type culpritRank struct {
	name      string
	blockedNs int64
	dets      int64
	acts      int64
}

// topRenderer owns the row buffers the watch loop reuses across refreshes.
type topRenderer struct {
	idx   map[int]int // culprit id → index into ranks
	ranks []culpritRank
	order []int // indices into ranks, sorted for display
}

// render writes the top view: the snapshot provenance line, a culprit
// ranking aggregated across victims, then the full matrix.
func (t *topRenderer) render(w io.Writer, resp telemetry.StatusResponse) {
	fmt.Fprintf(w, "pboxctl top — %d pboxes, %d attribution triples", len(resp.PBoxes), len(resp.Matrix))
	if resp.Dropped > 0 {
		fmt.Fprintf(w, " (%d dropped at ledger cap)", resp.Dropped)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "snapshot: epoch=%d age=%s build=%s interval=%s\n",
		resp.Epoch, resp.Age, resp.BuildDuration, resp.Interval)

	// Rank culprits by total blocked time inflicted.
	if t.idx == nil {
		t.idx = make(map[int]int)
	}
	clear(t.idx)
	t.ranks = t.ranks[:0]
	t.order = t.order[:0]
	for _, m := range resp.Matrix {
		i, ok := t.idx[m.CulpritID]
		if !ok {
			i = len(t.ranks)
			t.ranks = append(t.ranks, culpritRank{name: name(m.CulpritLabel, m.CulpritID)})
			t.idx[m.CulpritID] = i
			t.order = append(t.order, i)
		}
		r := &t.ranks[i]
		r.blockedNs += m.BlockedNs
		r.dets += m.Detections
		r.acts += m.Actions
	}
	sort.Slice(t.order, func(i, j int) bool {
		return t.ranks[t.order[i]].blockedNs > t.ranks[t.order[j]].blockedNs
	})
	fmt.Fprintln(w, "\nCULPRITS (total victim wait inflicted)")
	fmt.Fprintf(w, "%-16s %-14s %-6s %s\n", "CULPRIT", "BLOCKED", "DET", "ACTIONS")
	for _, i := range t.order {
		r := &t.ranks[i]
		fmt.Fprintf(w, "%-16s %-14v %-6d %d\n", r.name, time.Duration(r.blockedNs), r.dets, r.acts)
	}

	fmt.Fprintln(w, "\nMATRIX (culprit → victim per resource)")
	fmt.Fprintf(w, "%-16s %-16s %-14s %-14s %-6s %-4s %s\n",
		"CULPRIT", "VICTIM", "RESOURCE", "BLOCKED", "DET", "ACT", "SERVED")
	for _, m := range resp.Matrix {
		res := m.Resource
		if res == "" {
			res = fmt.Sprintf("key-0x%x", m.Key)
		}
		fmt.Fprintf(w, "%-16s %-16s %-14s %-14s %-6d %-4d %s\n",
			name(m.CulpritLabel, m.CulpritID), name(m.VictimLabel, m.VictimID),
			res, m.Blocked, m.Detections, m.Actions, m.PenaltyServed)
	}

	if len(resp.Resources) > 0 {
		fmt.Fprintln(w, "\nRESOURCES (waiters/holders at snapshot)")
		for _, r := range resp.Resources {
			res := r.Name
			if res == "" {
				res = fmt.Sprintf("key-0x%x", r.Key)
			}
			fmt.Fprintf(w, "%-16s waiters=%-4d holders=%d\n", res, r.Waiters, r.Holders)
		}
	}
}

// cmdSelf prints the manager's self-telemetry: how much the observability
// machinery itself is costing the target process.
func cmdSelf(args []string) error {
	fs, addr := flagSet("self")
	full := fs.Bool("json", false, "print the raw /self JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var st telemetry.SelfResponse
	if err := getJSON(*addr, "/self", &st); err != nil {
		return err
	}
	if *full {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Printf("snapshot    epoch=%d age=%s interval=%s builds=%d cache_hits=%d last_build=%s build_total=%s\n",
		st.SnapshotEpoch, st.SnapshotAge, st.SnapshotInterval,
		st.SnapshotBuilds, st.SnapshotCacheHits, st.SnapshotLastBuild, st.SnapshotBuildTotal)
	fmt.Printf("spools      flushes=%d flushed_events=%d sweeps=%d overflows=%d capacity=%d\n",
		st.SpoolFlushes, st.SpoolFlushedEvents, st.SpoolSweeps, st.SpoolOverflows, st.SpoolCapacity)
	fmt.Printf("contention  claims=%d revocations=%d sticky_slots=%d\n",
		st.ContentionClaims, st.ContentionRevocations, st.ContentionStickySlots)
	fmt.Printf("shard locks acquisitions=%d hottest=%d shards=%d\n",
		st.ShardLockAcquisitions, st.ShardLockMax, st.Shards)
	if st.Wire != nil {
		fmt.Printf("wire        conns=%d/%d frames=%d events=%d shed_conn=%d shed_global=%d bind_refused=%d errors=%d\n",
			st.Wire.ConnsActive, st.Wire.ConnsTotal, st.Wire.Frames, st.Wire.Events,
			st.Wire.ShedConn, st.Wire.ShedGlobal, st.Wire.BindRefused, st.Wire.Errors)
	}
	fmt.Printf("crossings   %d\n", st.Crossings)
	fmt.Printf("verdicts    count=%d sum=%s\n", st.VerdictLatency.Count, st.VerdictLatency.Sum)
	for _, b := range st.VerdictLatency.Buckets {
		fmt.Printf("  le=%-8s %d\n", b.LE, b.Count)
	}
	return nil
}

func cmdPBoxes(args []string) error {
	fs, addr := flagSet("pboxes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var statuses []telemetry.PBoxStatus
	if err := getJSON(*addr, "/pboxes", &statuses); err != nil {
		return err
	}
	fmt.Printf("%-5s %-16s %-10s %-6s %-10s %-12s %-5s %s\n",
		"ID", "LABEL", "STATE", "GOAL", "RATIO", "DEFER", "PEN", "SERVED")
	for _, s := range statuses {
		fmt.Printf("%-5d %-16s %-10s %-6.2f %-10.3f %-12s %-5d %s\n",
			s.ID, s.Label, s.State, s.Goal, s.DeferRatio, s.TotalDefer,
			s.PenaltiesReceived, s.PenaltyServed)
	}
	fmt.Printf("%d pboxes\n", len(statuses))
	return nil
}

func cmdIncidents(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: pboxctl incidents list | show <id>")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "list":
		fs, addr := flagSet("incidents list")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		var ids []string
		if err := getJSON(*addr, "/flightrec/incidents", &ids); err != nil {
			return err
		}
		if len(ids) == 0 {
			fmt.Println("no incidents recorded")
			return nil
		}
		for _, id := range ids {
			fmt.Println(id)
		}
		return nil
	case "show":
		fs, addr := flagSet("incidents show")
		full := fs.Bool("json", false, "print the raw bundle JSON")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: pboxctl incidents show <id>")
		}
		id := fs.Arg(0)
		var inc flightrec.Incident
		if err := getJSON(*addr, "/flightrec/incident?id="+url.QueryEscape(id), &inc); err != nil {
			return err
		}
		if *full {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(inc)
		}
		renderIncident(os.Stdout, inc)
		return nil
	default:
		return fmt.Errorf("unknown incidents subcommand %q (want list or show)", sub)
	}
}

// renderIncident prints the human-readable view of a bundle: the verdict
// header, the Algorithm 1 inputs, the matrix, and the event tail.
func renderIncident(w io.Writer, inc flightrec.Incident) {
	fmt.Fprintf(w, "incident %s  (%s, trigger=%s)\n", inc.ID, inc.CapturedAt, inc.Trigger)
	if inc.Reason != "" {
		fmt.Fprintf(w, "reason:   %s\n", inc.Reason)
	}
	if inc.Trigger == "detection" {
		res := inc.Resource
		if res == "" {
			res = fmt.Sprintf("key-0x%x", inc.Key)
		}
		fmt.Fprintf(w, "verdict:  %s interferes with %s on %s\n",
			name(inc.CulpritLabel, inc.CulpritID), name(inc.VictimLabel, inc.VictimID), res)
		fmt.Fprintf(w, "inputs:   projected_level=%.3f goal=%.3f projected_speedup=%.2fx\n",
			inc.ProjectedLevel, inc.Goal, inc.ProjectedSpeedup)
		if inc.PenaltyPolicy != "" {
			fmt.Fprintf(w, "action:   policy=%s length=%s\n", inc.PenaltyPolicy, inc.PenaltyLength)
		} else {
			fmt.Fprintf(w, "action:   none scheduled (cooldown or pending penalty)\n")
		}
	}
	if len(inc.PBoxes) > 0 {
		fmt.Fprintf(w, "\npboxes at capture:\n")
		for _, p := range inc.PBoxes {
			fmt.Fprintf(w, "  %-16s goal=%.2f ratio=%.3f defer=%s penalties=%d served=%s\n",
				name(p.Label, p.ID), p.Goal, p.DeferRatio, p.TotalDefer, p.PenaltiesReceived, p.PenaltyServed)
		}
	}
	if len(inc.Attribution) > 0 {
		fmt.Fprintf(w, "\nattribution:\n")
		for _, a := range inc.Attribution {
			fmt.Fprintf(w, "  %-14s → %-14s on %-12s blocked=%-12s det=%-4d act=%-3d served=%s\n",
				name(a.CulpritLabel, a.CulpritID), name(a.VictimLabel, a.VictimID),
				a.Resource, a.Blocked, a.Detections, a.Actions, a.PenaltyServed)
		}
	}
	fmt.Fprintf(w, "\nevents (%d):\n", len(inc.Events))
	for _, e := range inc.Events {
		fmt.Fprintln(w, traceRow(e))
	}
}

// traceRow prints one trace-ring row, from /trace or from a bundle: sequence
// number, manager-clock stamp, the record's own line, the resource's name.
func traceRow(e telemetry.TraceEvent) string {
	line := fmt.Sprintf("%8d %12s %s", e.Seq, e.At, e.Text)
	if e.Name != "" {
		line += " res=" + e.Name
	}
	return line
}

func cmdDump(args []string) error {
	fs, addr := flagSet("dump")
	reason := fs.String("reason", "pboxctl dump", "reason recorded in the bundle")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := http.Post("http://"+*addr+"/flightrec/dump?reason="+url.QueryEscape(*reason), "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dump: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var out map[string]string
	if err := json.Unmarshal(body, &out); err != nil {
		return err
	}
	fmt.Println(out["id"])
	return nil
}

func cmdTrace(args []string) error {
	fs, addr := flagSet("trace")
	follow := fs.Bool("follow", false, "stream new entries (long-poll)")
	since := fs.Uint64("since", 0, "start after this sequence number")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cursor := *since
	for {
		path := fmt.Sprintf("/trace?since=%d", cursor)
		if *follow {
			path += "&wait=10s"
		}
		var tr telemetry.TraceResponse
		if err := getJSON(*addr, path, &tr); err != nil {
			return err
		}
		for _, e := range tr.Entries {
			fmt.Println(traceRow(e))
		}
		cursor = tr.Next
		if !*follow {
			return nil
		}
	}
}
