package minikv

import (
	"bufio"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pbox/internal/core"
	"pbox/internal/isolation"
	"pbox/internal/workload"
)

// startTestServer brings up a full pboxd-shaped stack on an ephemeral port:
// a traced manager, per-connection pBoxes, KV behind real TCP.
func startTestServer(t *testing.T, capacity, evictScan int) (addr string, mgr *core.Manager) {
	t.Helper()
	mgr = core.NewManager(core.Options{TraceSize: 512})
	rule := core.DefaultRule()
	rule.Level = 0.5
	ctrl := isolation.NewPBox(mgr, rule)

	cfg := DefaultConfig()
	cfg.Capacity = capacity
	cfg.EvictScanItems = evictScan
	kv := New(cfg)
	mgr.NameResource(kv.CacheLock().Key(), "cache_lock")
	srv := NewServer(kv, ctrl)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return ln.Addr().String(), mgr
}

func TestServerProtocol(t *testing.T) {
	addr, mgr := startTestServer(t, 64, 16)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(cmd string) string {
		t.Helper()
		if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
			t.Fatalf("write %q: %v", cmd, err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read after %q: %v", cmd, err)
		}
		return strings.TrimSpace(line)
	}

	for _, step := range []struct{ cmd, want string }{
		{"hello tester", "OK"},
		{"ping", "PONG"},
		{"get 1", "MISS"},
		{"set 1", "OK"},
		{"get 1", "HIT"},
		{"get", "ERR usage: get <key>"},
		{"set banana", "ERR bad key"},
		{"frobnicate", "ERR unknown command"},
	} {
		if got := send(step.cmd); got != step.want {
			t.Fatalf("%q -> %q, want %q", step.cmd, got, step.want)
		}
	}

	// The connection's pBox carries the hello label.
	var labeled bool
	for _, s := range mgr.Status().Snapshots {
		if s.Label == "tester" {
			labeled = true
		}
	}
	if !labeled {
		t.Fatalf("no pBox labeled tester in %+v", mgr.Status().Snapshots)
	}

	if got := send("quit"); got != "BYE" {
		t.Fatalf("quit -> %q", got)
	}
}

// TestServerEndToEndPenalties is the CI-able version of the pboxd -demo
// acceptance run: one noisy set-heavy background client keeps evicting (long
// cache-lock holds) while victim clients do short gets, all over real TCP.
// The manager must detect the interference and penalize the noisy
// connection's pBox, and the collector must count it.
func TestServerEndToEndPenalties(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real TCP traffic for up to several seconds")
	}
	const capacity = 256
	addr, mgr := startTestServer(t, capacity, 128)

	// Preload so victim gets are hits.
	pre, err := workload.DialKV(addr, "preload")
	if err != nil {
		t.Fatalf("preload dial: %v", err)
	}
	for k := 0; k < capacity; k++ {
		if err := pre.Set(k); err != nil {
			t.Fatalf("preload set: %v", err)
		}
	}
	pre.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	client := func(name string, background bool, op func(*workload.KVConn, *rand.Rand) error) {
		defer wg.Done()
		var c *workload.KVConn
		var err error
		if background {
			c, err = workload.DialKVBackground(addr, name)
		} else {
			c, err = workload.DialKV(addr, name)
		}
		if err != nil {
			t.Errorf("%s dial: %v", name, err)
			return
		}
		defer c.Close()
		r := rand.New(rand.NewSource(int64(len(name))))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := op(c, r); err != nil {
				select {
				case <-stop: // errors after shutdown are expected
				default:
					t.Errorf("%s: %v", name, err)
				}
				return
			}
		}
	}
	wg.Add(3)
	go client("noisy", true, func(c *workload.KVConn, r *rand.Rand) error {
		return c.Set(capacity + r.Intn(8*capacity))
	})
	for i := 0; i < 2; i++ {
		go client("victim", false, func(c *workload.KVConn, r *rand.Rand) error {
			_, err := c.Get(r.Intn(capacity / 2))
			time.Sleep(time.Millisecond)
			return err
		})
	}

	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	var noisyPenalized bool
poll:
	for {
		select {
		case <-deadline:
			break poll
		case <-tick.C:
		}
		if mgr.SelfStats().Penalties == 0 {
			continue
		}
		for _, s := range mgr.Status().Snapshots {
			if s.Label == "noisy" && s.PenaltiesReceived > 0 && s.PenaltyTotal > 0 {
				noisyPenalized = true
				break poll
			}
		}
	}
	close(stop)
	wg.Wait()

	if mgr.SelfStats().Penalties == 0 {
		t.Fatal("SelfStats.Penalties stayed zero: no penalty was ever scheduled")
	}
	if !noisyPenalized {
		t.Fatalf("noisy pBox never showed served penalty time; snapshots: %+v", mgr.Status().Snapshots)
	}
}
