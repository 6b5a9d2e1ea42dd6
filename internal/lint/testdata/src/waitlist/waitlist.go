// Fixture for the waitloop pass under a custom waiting-function list,
// the one pboxanalyze -waitfuncs waitlist.park gives.
package waitlist

import "time"

var busy bool

// park is a waiting function only because the list names it.
func park() {}

func wait() {
	for busy {
		park() // want `wait via park inside loop gated on shared vars \(busy\)`
	}
}

// sleep's time.Sleep is off the list, so it waits for nothing here.
func sleep() {
	for busy {
		time.Sleep(time.Millisecond)
	}
}
