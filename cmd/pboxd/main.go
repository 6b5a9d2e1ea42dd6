// Command pboxd runs the minikv substrate as a real network daemon: a TCP
// key-value server with one pBox per client connection, the pBox manager
// watching every cache-lock event, and the telemetry subsystem exporting
// live metrics over HTTP. It is the serving-system face of the
// reproduction — while clients run, an operator can watch detection and
// penalties happen:
//
//	pboxd &
//	curl localhost:7070/metrics   # Prometheus text, pbox_penalties_total etc.
//	curl localhost:7070/pboxes    # per-connection defer ratio, goal, penalties
//	curl "localhost:7070/trace?since=0&wait=5s"  # long-poll the event trace
//
// With -demo, pboxd also drives itself with a noisy (set-heavy, evicting)
// client and victim get clients over real sockets for the given duration,
// then prints a per-pBox report — a one-command version of the paper's c16
// setup against a live server.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pbox/internal/apps/minikv"
	"pbox/internal/capture"
	"pbox/internal/core"
	"pbox/internal/flightrec"
	"pbox/internal/isolation"
	"pbox/internal/stats"
	"pbox/internal/telemetry"
	"pbox/internal/wire"
	"pbox/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7171", "TCP listen address for the KV protocol")
		httpAddr  = flag.String("http", "127.0.0.1:7070", "HTTP listen address for telemetry (empty disables)")
		goal      = flag.Float64("goal", 0.5, "relative isolation level for client pBoxes")
		traceSize = flag.Int("trace", 4096, "trace ring capacity (0 disables tracing)")
		capacity  = flag.Int("capacity", 512, "KV store capacity (items)")
		evictScan = flag.Int("evict-scan", 192, "LRU entries scanned per eviction (lock hold length)")
		demo      = flag.Duration("demo", 0, "run a built-in noisy+victim client demo for this long, then exit")
		victims   = flag.Int("victims", 2, "victim get-clients in -demo mode")
		incidents = flag.String("incidents", "incidents", "flight-recorder incidents directory (empty disables)")
		record    = flag.String("record", "", "capture full replayable event log into this directory (pboxreplay consumes it)")

		wireAddr   = flag.String("wire", "127.0.0.1:7272", "TCP listen address for the batched binary ingestion protocol (empty disables)")
		wireRate   = flag.Float64("wire-rate", 0, "per-connection wire event admission rate (events/sec, 0 = unlimited)")
		wireBurst  = flag.Int("wire-burst", 0, "per-connection wire admission bucket depth (0 = default)")
		wireGRate  = flag.Float64("wire-global-rate", 0, "global wire event-rate ceiling across all connections (events/sec, 0 = unlimited)")
		wireGBurst = flag.Int("wire-global-burst", 0, "global wire admission bucket depth (0 = default)")
	)
	flag.Parse()

	cfg := minikv.DefaultConfig()
	cfg.Capacity = *capacity
	cfg.EvictScanItems = *evictScan

	// Observer chain, front to back: the manager's own trace ring (the one
	// in-memory copy of the stream) → capture recorder → flight recorder.
	// Every link forwards every callback (core.RecordObserver), so each sees
	// the exact stream the manager emitted whatever the order. No link counts
	// anything for /metrics: the manager keeps those counts itself, and the
	// exporter renders them at scrape time. Attribution stays on — the ledger
	// is the daemon's who-hurt-whom diagnosis surface.
	var (
		rec    *flightrec.Recorder
		capRec *capture.Recorder
		obs    core.Observer
	)
	opts := core.Options{TraceSize: *traceSize, Attribution: true}
	if *incidents != "" {
		rec = flightrec.New(flightrec.Config{Dir: *incidents, Next: obs})
		obs = rec
	}
	if *record != "" {
		var err error
		capRec, err = capture.NewRecorder(capture.RecorderConfig{Dir: *record, Next: obs})
		if err != nil {
			log.Fatalf("pboxd: capture recorder: %v", err)
		}
		obs = capRec
	}
	if obs != nil {
		opts.Observer = obs
	}
	mgr := core.NewManager(opts)
	if rec != nil {
		rec.AttachManager(mgr)
		log.Printf("pboxd: flight recorder writing incident bundles to %s/", *incidents)
		if *traceSize <= 0 {
			log.Printf("pboxd: -trace 0: no trace ring, so incident bundles carry state sections only (no events)")
		}
	}
	if capRec != nil {
		if rec != nil {
			rec.AttachCapture(capRec) // incident bundles reference the capture log position
		}
		log.Printf("pboxd: capture recorder writing event log to %s/ (read with: pboxreplay info|cat %s)", *record, *record)
	}
	rule := core.DefaultRule()
	rule.Level = *goal
	ctrl := isolation.NewPBox(mgr, rule)

	kv := minikv.New(cfg)
	mgr.NameResource(kv.CacheLock().Key(), "cache_lock")
	srv := minikv.NewServer(kv, ctrl)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("pboxd: listen %s: %v", *addr, err)
	}
	log.Printf("pboxd: serving minikv on %s (capacity=%d evict-scan=%d goal=%.2f shards=%d spool=%d)",
		ln.Addr(), cfg.Capacity, cfg.EvictScanItems, rule.Level, mgr.ShardCount(), mgr.SpoolCapacity())

	// The wire front door: the batched binary ingestion protocol for
	// external feeders (DESIGN.md §15), served alongside minikv on its own
	// listener, with admission control at the socket.
	var wireSrv *wire.Server
	if *wireAddr != "" {
		wireSrv = wire.NewServer(mgr, wire.Config{
			PerConnRate:  *wireRate,
			PerConnBurst: *wireBurst,
			GlobalRate:   *wireGRate,
			GlobalBurst:  *wireGBurst,
		})
		wln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatalf("pboxd: wire listen %s: %v", *wireAddr, err)
		}
		go func() {
			if err := wireSrv.Serve(wln); err != nil {
				log.Printf("pboxd: wire server: %v", err)
			}
		}()
		log.Printf("pboxd: wire ingestion on %s (per-conn rate=%.0f global rate=%.0f, 0 = unlimited)",
			wln.Addr(), *wireRate, *wireGRate)
	}

	var httpSrv *http.Server
	if *httpAddr != "" {
		exp := telemetry.NewExporter(nil, mgr)
		if rec != nil {
			exp.AttachFlightRecorder(rec)
		}
		if wireSrv != nil {
			exp.AttachWire(wireSrv)
		}
		httpSrv = &http.Server{Addr: *httpAddr, Handler: exp.Handler()}
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("pboxd: http listen %s: %v", *httpAddr, err)
		}
		go func() {
			if err := httpSrv.Serve(hln); err != nil && err != http.ErrServerClosed {
				log.Printf("pboxd: http server: %v", err)
			}
		}()
		log.Printf("pboxd: telemetry on http://%s  (/metrics /status /self /pboxes /attribution /trace /flightrec)", hln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if *demo > 0 {
		last := runDemo(mgr, ln.Addr().String(), *demo, *victims, cfg.Capacity)
		if rec != nil {
			rec.Close() // drain pending incident bundles before reporting
		}
		report(last, mgr, rec)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case s := <-sig:
			log.Printf("pboxd: %v, shutting down", s)
		case err := <-serveErr:
			log.Printf("pboxd: accept loop ended: %v", err)
		}
	}

	srv.Close()
	if wireSrv != nil {
		// Close waits for every connection handler to drain its worker
		// spool, so wire tail events reach the books before the recorders
		// close.
		wireSrv.Close()
	}
	if httpSrv != nil {
		httpSrv.Close()
	}
	// Final drain: sweep every worker spool (flush-on-read) so Tier-A tail
	// events still buffered at shutdown are replayed into the manager — and
	// through it into the capture recorder — before the recorders flush and
	// close. Without this, SIGTERM could drop spooled events on the floor.
	mgr.Status()
	if rec != nil {
		rec.Close()
	}
	if capRec != nil {
		if err := capRec.Close(); err != nil {
			log.Printf("pboxd: capture recorder: %v", err)
		}
		if n := capRec.Dropped(); n > 0 {
			log.Printf("pboxd: capture recorder dropped %d records (queue overflow)", n)
		}
	}
}

// runDemo reproduces the c16 shape over real sockets: one noisy set-heavy
// client whose writes keep evicting (long cache-lock holds), plus victim
// clients doing short gets on resident keys. While the clients run it
// samples the live per-pBox accounting once a second (the same data /pboxes
// serves) and returns the last sample taken before the connections closed.
func runDemo(mgr *core.Manager, addr string, d time.Duration, nVictims, capacity int) []core.Snapshot {
	log.Printf("pboxd: demo for %v — 1 noisy setter + %d victim getters", d, nVictims)

	// Preload the working set so victim gets are hits.
	seed, err := workload.DialKV(addr, "preload")
	if err != nil {
		log.Fatalf("pboxd: demo dial: %v", err)
	}
	for k := 0; k < capacity; k++ {
		if err := seed.Set(k); err != nil {
			log.Fatalf("pboxd: demo preload: %v", err)
		}
	}
	seed.Close()

	vrec := stats.NewRecorder(4096)
	specs := []workload.Spec{
		workload.KVTCPSpec{
			Name:        "noisy",
			Addr:        addr,
			Keys:        func(r *rand.Rand) int { return capacity + r.Intn(8*capacity) },
			SetFraction: 1.0,
			Background:  true,
			OnError:     func(err error) { log.Printf("pboxd: noisy client: %v", err) },
		}.Spec(),
	}
	// Victim gets think between requests so they stay open-loop-light:
	// the contention in the demo comes from the noisy client's eviction
	// scans, not from victims saturating the lock against each other.
	for i := 0; i < nVictims; i++ {
		s := workload.KVTCPSpec{
			Name:    fmt.Sprintf("victim-%d", i+1),
			Addr:    addr,
			Keys:    workload.UniformKeys(capacity / 2),
			Think:   2 * time.Millisecond,
			OnError: func(err error) { log.Printf("pboxd: victim client: %v", err) },
		}.Spec()
		s.Recorder = vrec
		specs = append(specs, s)
	}
	// Live monitor: the published epoch snapshot (the same view /status
	// serves), sampled while the clients run — the monitor never takes a
	// shard lock inside the manager it is watching.
	stop := make(chan struct{})
	lastCh := make(chan []core.Snapshot, 1)
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		var last []core.Snapshot
		for {
			select {
			case <-stop:
				lastCh <- last
				return
			case <-tick.C:
			}
			snaps := mgr.StatusView().Snapshots
			if len(snaps) > 0 {
				last = snaps
			}
			for _, s := range snaps {
				if s.Label == "noisy" {
					log.Printf("pboxd: live: noisy pbox=%d defer_ratio=%.3f penalties=%d served=%v",
						s.ID, s.InterferenceLevel, s.PenaltiesReceived, s.PenaltyTotal)
				}
			}
		}
	}()
	workload.Run(d, specs)
	close(stop)
	last := <-lastCh

	sum := vrec.Summary()
	log.Printf("pboxd: demo done — victim requests=%d mean=%v p95=%v p99=%v",
		sum.Count, sum.Mean, sum.P95, sum.P99)
	return last
}

// report prints the per-pBox accounting, the culprit↔victim attribution
// matrix, any frozen incident bundles, and the /metrics exposition after a
// demo.
func report(snaps []core.Snapshot, mgr *core.Manager, rec *flightrec.Recorder) {
	fmt.Println("--- pboxes (last live sample) ---")
	for _, s := range snaps {
		fmt.Printf("pbox %-3d %-10s goal=%.2f activities=%-6d defer_ratio=%.3f penalties=%d served=%v\n",
			s.ID, s.Label, s.Goal, s.Activities, s.InterferenceLevel, s.PenaltiesReceived, s.PenaltyTotal)
	}
	// The final report wants everything the workload produced, including
	// events still sitting in worker spools — force a fresh snapshot.
	if recs := mgr.RefreshStatusView().Attribution; len(recs) > 0 {
		fmt.Println("--- attribution (culprit → victim, by blocked time) ---")
		for _, a := range recs {
			culprit, victim := a.CulpritLabel, a.VictimLabel
			if culprit == "" {
				culprit = fmt.Sprintf("pbox-%d", a.CulpritID)
			}
			if victim == "" {
				victim = fmt.Sprintf("pbox-%d", a.VictimID)
			}
			fmt.Printf("%-12s → %-12s on %-12s blocked=%-12v detections=%-4d actions=%-3d served=%v\n",
				culprit, victim, a.Resource, a.Blocked, a.Detections, a.Actions, a.PenaltyServed)
		}
	}
	if rec != nil {
		if ids, err := rec.Incidents(); err == nil && len(ids) > 0 {
			fmt.Println("--- incidents ---")
			for _, id := range ids {
				fmt.Printf("incident %s\n", id)
			}
		}
	}
	fmt.Println("--- metrics ---")
	rw := httptest.NewRecorder()
	telemetry.NewExporter(nil, mgr).ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	os.Stdout.Write(rw.Body.Bytes())
}
