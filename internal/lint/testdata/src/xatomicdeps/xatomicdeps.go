// Fixture dependency for the cross-package mixed atomic/plain access test:
// this package accesses Stats.N through the sync/atomic free functions.
// The free functions are the finding: a field they reach can be read
// plainly from any package (xatomicmixed does), and only a typed atomic's
// type forbids it.
package xatomicdeps

import "sync/atomic"

type Stats struct {
	N int64
}

// Bump increments atomically.
func Bump(s *Stats) {
	atomic.AddInt64(&s.N, 1) // want `sync/atomic free function AddInt64`
}

// Read loads atomically.
func Read(s *Stats) int64 {
	return atomic.LoadInt64(&s.N) // want `sync/atomic free function LoadInt64`
}
