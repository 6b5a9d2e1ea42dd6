// wireclient: feed a running pboxd from another process over the batched
// binary wire protocol (DESIGN.md §15). The daemon tracks the external
// tenant's contention exactly as if the events came from in-process code:
// register a tenant, select it, stream state events in delta-encoded frames,
// and ping for the ingestion barrier. Start a daemon and run it:
//
//	pboxd -wire 127.0.0.1:7272 &
//	go run ./examples/wireclient -events 100000 -hold 30s &
//	pboxctl pboxes                    # the tenant, frozen between sessions
//
// Tenants live as long as their connection (teardown releases them), so
// -hold keeps the feeder attached for inspection.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"pbox/internal/core"
	"pbox/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7272", "pboxd wire address (-wire flag of pboxd)")
	events := flag.Int("events", 100_000, "state events to stream (hold/unhold pairs)")
	hold := flag.Duration("hold", 0, "keep the connection (and so the tenant) alive this long after feeding")
	flag.Parse()

	// The walkthrough: everything an external feeder needs is these ten
	// lines — dial, register, select, stream, barrier.
	c, err := wire.Dial(*addr)
	if err != nil {
		log.Fatalf("wireclient: %v", err)
	}
	defer c.Close()
	c.Register(1, core.DefaultRule(), "wireclient")
	c.Activate(1)
	c.Select(1)
	for i := 0; i < *events/2; i++ {
		c.Event(42, core.Hold)
		c.Event(42, core.Unhold)
	}
	pong, err := c.Ping(1)
	if err != nil {
		log.Fatalf("wireclient: ping: %v", err)
	}

	// End the tenant's activity: a frozen pBox is idle until its next
	// Activate.
	c.Freeze(1)
	if _, err := c.Ping(2); err != nil {
		log.Fatalf("wireclient: ping: %v", err)
	}
	fmt.Printf("wireclient: server ingested %d events on this connection (shed conn=%d global=%d)\n",
		pong.Events, pong.ShedConn, pong.ShedGlobal)
	time.Sleep(*hold)
}
