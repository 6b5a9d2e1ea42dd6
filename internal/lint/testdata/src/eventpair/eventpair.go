// Fixture for the eventpair pass. The named type EventType and its
// Prepare/Enter/Hold/Unhold constants mirror internal/core; the pass keys
// on the type name so the fixture needs no import.
package eventpair

type EventType int

const (
	Prepare EventType = iota
	Enter
	Hold
	Unhold
)

type activity struct{}

func (a *activity) event(key uintptr, ev EventType) {}

// goodPair closes on the single path: clean.
func goodPair(a *activity, k uintptr) {
	a.event(k, Hold)
	a.event(k, Unhold)
}

// badEarlyReturn leaks the Hold on the error path.
func badEarlyReturn(a *activity, k uintptr, err bool) {
	a.event(k, Hold) // want `Hold emitted here is not matched by Unhold`
	if err {
		return
	}
	a.event(k, Unhold)
}

// goodDefer: the deferred closer covers every exit.
func goodDefer(a *activity, k uintptr, err bool) {
	a.event(k, Hold)
	defer a.event(k, Unhold)
	if err {
		return
	}
}

// goodDeferClosure: closers inside a deferred func count too.
func goodDeferClosure(a *activity, k uintptr, err bool) {
	a.event(k, Hold)
	defer func() {
		a.event(k, Unhold)
	}()
	if err {
		return
	}
}

// splitPhaseLock only opens: a split-phase API (like Mutex.Lock), left to
// the dynamic checks.
func splitPhaseLock(a *activity, k uintptr) {
	a.event(k, Prepare)
	a.event(k, Enter)
	a.event(k, Hold)
}

// splitPhaseUnlock only closes: also fine.
func splitPhaseUnlock(a *activity, k uintptr) {
	a.event(k, Unhold)
}

// badReopen pairs once, then reopens on a branch and falls off the end.
func badReopen(a *activity, k uintptr, again bool) {
	a.event(k, Hold)
	a.event(k, Unhold)
	if again {
		a.event(k, Hold) // want `Hold emitted here is not matched by Unhold`
	}
}

// badPrepareBranch forgets Enter on the slow path.
func badPrepareBranch(a *activity, k uintptr, fast bool) {
	a.event(k, Prepare) // want `Prepare emitted here is not matched by Enter`
	if fast {
		a.event(k, Enter)
		return
	}
}

// goodInfiniteLoop is the Queue.Push shape: Prepare, then a no-exit loop
// whose every return emits Enter first.
func goodInfiniteLoop(a *activity, k uintptr, ch chan int) int {
	a.event(k, Prepare)
	for {
		v := <-ch
		if v > 0 {
			a.event(k, Enter)
			return v
		}
		if v < 0 {
			a.event(k, Enter)
			return -v
		}
	}
}

// goodDistinctKeys: events on different activities pair independently.
func goodDistinctKeys(a, q *activity, k uintptr) {
	a.event(k, Hold)
	q.event(k, Hold)
	q.event(k, Unhold)
	a.event(k, Unhold)
}

// badWrongActivity closes the wrong activity's pair.
func badWrongActivity(a, q *activity, k uintptr, err bool) {
	a.event(k, Hold) // want `Hold emitted here is not matched by Unhold`
	if err {
		q.event(k, Unhold)
		return
	}
	a.event(k, Unhold)
}

// badHoldAcrossBreak: the break leaves the loop with the Hold open.
func badHoldAcrossBreak(a *activity, k uintptr, ch chan int) {
	for {
		a.event(k, Hold) // want `Hold emitted here is not matched by Unhold`
		if <-ch > 0 {
			break
		}
		a.event(k, Unhold)
	}
}

// badHoldAcrossContinue: the continue carries the open Hold to the back
// edge, and from there out of the loop.
func badHoldAcrossContinue(a *activity, k uintptr, ch chan int) {
	for len(ch) > 0 {
		a.event(k, Hold) // want `Hold emitted here is not matched by Unhold`
		if <-ch > 0 {
			continue
		}
		a.event(k, Unhold)
	}
}
