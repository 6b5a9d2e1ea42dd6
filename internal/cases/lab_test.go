//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package cases

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/synctest"
	"time"

	"pbox/internal/exec"
	"pbox/internal/stats"
)

// The case lab: the whole evaluation of Section 6, re-executed closed loop in
// virtual time. Each run is one testing/synctest bubble whose fake clock moves
// only when every goroutine in it is blocked, and internal/exec turns work and
// waits into sleeps on that clock, so a run is a deterministic function of the
// code: the real applications, the real manager and the real baselines, with no
// host noise. Run it with
//
//	GOEXPERIMENT=synctest go test -run Lab ./internal/cases
//
// and regenerate the goldens under testdata/lab with PBOX_REGEN_GOLDEN=1. In
// virtual time simulated work costs no CPU and the manager's own cost is zero,
// so the lab measures what pBox decides, not what it costs (benchmark/ does).

// virtual runs f in a fresh bubble with internal/exec in virtual mode, at
// GOMAXPROCS 1 and with the collector off: with two Ps the order of two
// goroutines woken at one instant is up to the scheduler, and a collection
// preempts whichever goroutine runs when it starts.
func virtual(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var restore func()
	synctest.Run(func() {
		restore = exec.Virtualize()
		f()
	})
	restore()
}

// twice runs f twice in virtual time and fails the test if the two results
// differ: every lab artifact is reproducible or it is not an artifact.
func twice[T any](t *testing.T, what string, f func() T, show func(T) string) T {
	var a, b T
	virtual(func() { a = f() })
	virtual(func() { b = f() })
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s differs between two runs:\n%s\n%s", what, show(a), show(b))
	}
	return a
}

// TestLab renders every view of the evaluation and the motivation figures and
// compares each with its golden file byte for byte.
func TestLab(t *testing.T) {
	lab := &Lab{Duration: labDuration, Exec: func(c Case, rc RunConfig) Outcome {
		what := fmt.Sprintf("%s %s noisy=%v rule=%v %+v", c.ID, rc.Solution, rc.Interference, rc.Rule.Level, rc.ManagerOptions)
		return twice(t, what, func() Outcome { return Run(c, rc) }, func(o Outcome) string {
			return strings.Join(rowOf(Cell{}, o).fields(), " ")
		})
	}}
	get := func(c Cell) row { return rowOf(c, lab.Get(c)) }
	files := make(map[string]string)
	for _, v := range views {
		files[v.file] = v.render(get)
	}
	var rows []row
	for _, c := range sortedCells(lab) {
		rows = append(rows, get(c))
	}
	files["cells.txt"] = formatCells(rows)
	for i, fig := range []func(time.Duration) []stats.Point{Fig1Series, Fig2Series, Fig3Series} {
		name := fmt.Sprintf("fig%d.txt", i+1)
		files[name] = seriesView(twice(t, name, func() []stats.Point { return fig(3 * time.Second) }, seriesView))
	}
	if t.Failed() {
		return
	}
	for name, want := range files {
		path := filepath.Join(labDir, name)
		if os.Getenv("PBOX_REGEN_GOLDEN") != "" {
			if err := os.MkdirAll(labDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden %s (generate with: PBOX_REGEN_GOLDEN=1 GOEXPERIMENT=synctest go test -run Lab ./internal/cases): %v", name, err)
		}
		if string(got) != want {
			t.Errorf("%s diverges from the lab's run:\n--- golden\n%s--- lab\n%s", name, got, want)
		}
	}
}
