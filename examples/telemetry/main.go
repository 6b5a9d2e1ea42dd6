// telemetry: the live observability loop in one self-contained process.
//
// The demo wires the telemetry subsystem end to end: a manager with a
// metrics Collector and trace ring, the minikv cache substrate, and one
// noisy + two victim in-process clients. While the clients run it polls the
// same data the pboxd HTTP endpoints serve — a /pboxes-style table once a
// second and a /trace-style incremental read — and when the run ends it
// prints the exporter's /metrics response, so the full pipeline (hooks →
// collector → registry, and the attribution ledger → pbox_attributed_*
// series) is visible without opening a socket.
//
// Run it:
//
//	go run ./examples/telemetry
//
// For the same pipeline over real TCP + HTTP, run `go run ./cmd/pboxd -demo 5s`
// and curl /metrics, /pboxes and /trace while it runs.
package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"pbox/internal/apps/minikv"
	"pbox/internal/core"
	"pbox/internal/isolation"
	"pbox/internal/telemetry"
	"pbox/internal/workload"
)

const capacity = 512

func main() {
	reg := telemetry.NewRegistry()
	mgr := core.NewManager(core.Options{
		Observer:    telemetry.NewCollector(reg),
		TraceSize:   2048,
		Attribution: true,
	})
	rule := core.DefaultRule()
	rule.Level = 0.5
	ctrl := isolation.NewPBox(mgr, rule)

	cfg := minikv.DefaultConfig()
	cfg.Capacity = capacity
	cfg.EvictScanItems = 192
	kv := minikv.New(cfg)
	mgr.NameResource(kv.CacheLock().Key(), "cache_lock")

	// Preload the working set so victim gets are hits.
	pre := kv.Connect(ctrl, "preload")
	for k := 0; k < capacity; k++ {
		pre.Set(k)
	}
	pre.Close()

	// Noisy background setter: every write misses, evicts, and scans the
	// LRU under the cache lock. Two victims do short gets on resident keys.
	noisy := kv.ConnectKind(ctrl, "noisy", isolation.KindBackground)
	specs := []workload.Spec{{
		Name: "noisy",
		Op: func(r *rand.Rand) {
			noisy.Set(capacity + r.Intn(8*capacity))
		},
		Teardown: noisy.Close,
	}}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("victim-%d", i)
		c := kv.Connect(ctrl, name)
		keys := workload.UniformKeys(capacity / 2)
		specs = append(specs, workload.Spec{
			Name:     name,
			Think:    2 * time.Millisecond,
			Op:       func(r *rand.Rand) { c.Get(keys(r)) },
			Teardown: c.Close,
		})
	}

	// Live monitor: the /pboxes view once a second, plus an incremental
	// /trace-style read showing the newest manager events.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var cursor uint64
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			fmt.Println("--- live pboxes ---")
			for _, s := range mgr.StatusView().Snapshots {
				fmt.Printf("  pbox %-3d %-9s defer_ratio=%.3f penalties=%-4d served=%v\n",
					s.ID, s.Label, s.InterferenceLevel, s.PenaltiesReceived, s.PenaltyTotal)
			}
			entries, next := mgr.TraceView(cursor)
			cursor = next
			if n := len(entries); n > 3 {
				entries = entries[n-3:] // just the newest few
			}
			for _, e := range entries {
				fmt.Printf("  trace %6d %s\n", e.Seq, e.String())
			}
		}
	}()

	fmt.Println("running 1 noisy setter + 2 victim getters for 3s...")
	workload.Run(3*time.Second, specs)
	close(stop)
	<-done

	fmt.Println("--- final metrics (/metrics) ---")
	mgr.RefreshStatusView() // the final dump wants every event, spooled ones too
	rw := httptest.NewRecorder()
	telemetry.NewExporter(reg, mgr).ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	os.Stdout.Write(rw.Body.Bytes())
}
