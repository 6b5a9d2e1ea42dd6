package lint_test

import (
	"testing"

	"pbox/internal/lint/linttest"
	"pbox/internal/lint/waitloop"
)

func TestWaitLoop(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), "waitloop", waitloop.Analyzer)
}

// TestWaitLoopList runs the pass with a list of its own in place of
// DefaultWaitFuncs, as pboxanalyze -waitfuncs does.
func TestWaitLoopList(t *testing.T) {
	defer func(list []string) { waitloop.WaitFuncs = list }(waitloop.WaitFuncs)
	waitloop.WaitFuncs = []string{"waitlist.park"}
	linttest.Run(t, linttest.TestData(t), "waitlist", waitloop.Analyzer)
}
