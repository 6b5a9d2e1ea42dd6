// Fixture for the mixed atomic/plain access case across packages: Stats.N is
// accessed with sync/atomic free functions in xatomicdeps, so the plain
// reads and writes here race with them. The snapshot pass convicts the free
// functions, where the fix is (a typed atomic field), so these lines stay
// clean.
package xatomicmixed

import "xatomicdeps"

// badRead reads the atomically-accessed field plainly.
func badRead(s *xatomicdeps.Stats) int64 {
	return s.N
}

// badWrite stores plainly.
func badWrite(s *xatomicdeps.Stats) {
	s.N = 0
}

// goodAtomic stays on the atomic API.
func goodAtomic(s *xatomicdeps.Stats) int64 {
	xatomicdeps.Bump(s)
	return xatomicdeps.Read(s)
}
