//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package exec

import (
	"testing"
	"testing/synctest"
	"time"
)

// TestVirtualize: in a bubble, Now starts from zero and every wait takes
// exactly its length of fake time; after restore the real clock is back.
//
//	GOEXPERIMENT=synctest go test -run Virtualize ./internal/exec
func TestVirtualize(t *testing.T) {
	var restore func()
	synctest.Run(func() {
		restore = Virtualize()
		if now := Now(); now != 0 {
			t.Errorf("Now at the bubble's start = %d, want 0", now)
		}
		Work(300 * time.Microsecond)
		SleepPrecise(5 * time.Millisecond)
		IOWait(time.Microsecond)
		if now, want := Now(), int64(5301*time.Microsecond); now != want {
			t.Errorf("Now after the waits = %d, want %d", now, want)
		}
	})
	restore()
	if virtual.Load() || Now() <= 0 {
		t.Fatalf("after restore: virtual %v, Now %d", virtual, Now())
	}
}
