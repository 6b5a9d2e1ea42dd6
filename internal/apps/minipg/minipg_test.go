package minipg

import (
	"slices"
	"sync"
	"testing"
	"time"

	"pbox/internal/core"
	"pbox/internal/isolation"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.RowWork = time.Microsecond
	cfg.ParseWork = time.Microsecond
	return cfg
}

// parked is the work that lasts until a lockWatch's gate opens.
const parked = time.Hour

// lockWatch is a no-isolation controller whose activities log their state
// events on key, in order, and park a Work(parked) on gate, so a test decides
// how long a lock stays held and asserts the structure — who waits, who is in
// — instead of the wall clock.
type lockWatch struct {
	isolation.Null
	key  core.ResourceKey
	gate chan struct{} // closed to let the parked work finish

	mu  sync.Mutex
	log []string // "<connection> PREPARE", "<connection> HOLD", …
}

type watched struct {
	isolation.Activity
	w    *lockWatch
	name string
}

// watchPartition returns a lockWatch on the partition lock of table.
func watchPartition(db *DB, table string) *lockWatch {
	return &lockWatch{key: db.partitionOf(table).Key(), gate: make(chan struct{})}
}

func (w *lockWatch) ConnStart(name string, kind isolation.Kind) isolation.Activity {
	return &watched{w.Null.ConnStart(name, kind), w, name}
}

func (a *watched) Work(d time.Duration) {
	if d == parked {
		<-a.w.gate
		return
	}
	a.Activity.Work(d)
}

func (a *watched) Event(key core.ResourceKey, ev core.EventType) {
	if key == a.w.key {
		a.w.mu.Lock()
		a.w.log = append(a.w.log, a.name+" "+ev.String())
		a.w.mu.Unlock()
	}
}

// index returns the position of entry in the log, -1 when it is not there.
func (w *lockWatch) index(entry string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Index(w.log, entry)
}

// waitFor polls until entry is logged.
func (w *lockWatch) waitFor(t *testing.T, entry string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); w.index(entry) < 0; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %q", entry)
		}
	}
}

func TestCreateAndLookupTable(t *testing.T) {
	db := New(testConfig())
	tab := db.CreateTable("t", 100)
	if db.Table("t") != tab {
		t.Fatal("lookup returned wrong table")
	}
	if db.Table("missing") != nil {
		t.Fatal("missing table not nil")
	}
}

func TestPartitionCountClamped(t *testing.T) {
	cfg := testConfig()
	cfg.LockPartitions = 0
	db := New(cfg)
	if len(db.lockParts) != 1 {
		t.Fatalf("partitions = %d, want 1", len(db.lockParts))
	}
}

func TestPartitionOfIsStable(t *testing.T) {
	db := New(testConfig())
	a := db.partitionOf("orders")
	b := db.partitionOf("orders")
	if a != b {
		t.Fatal("partition hash not stable")
	}
}

func TestInsertTracksInProgressUntilCommit(t *testing.T) {
	db := New(testConfig())
	tab := db.CreateTable("t", 100)
	ctrl := isolation.NewNull()
	b := db.Connect(ctrl, "ins-1")
	defer b.Close()

	b.Begin()
	b.Insert("t", 10)
	if got := tab.InProgress(); got != 10 {
		t.Fatalf("in-progress = %d, want 10", got)
	}
	b.Insert("t", 5)
	if got := tab.InProgress(); got != 15 {
		t.Fatalf("in-progress = %d, want 15", got)
	}
	b.Commit()
	if got := tab.InProgress(); got != 0 {
		t.Fatalf("in-progress after commit = %d, want 0", got)
	}
	if got := tab.DeadRows(); got != 15 {
		t.Fatalf("dead rows after commit = %d, want 15", got)
	}
}

func TestAutocommitInsertLeavesNoInProgress(t *testing.T) {
	db := New(testConfig())
	tab := db.CreateTable("t", 100)
	ctrl := isolation.NewNull()
	b := db.Connect(ctrl, "ins-1")
	defer b.Close()
	b.Insert("t", 7) // no explicit transaction
	if got := tab.InProgress(); got != 0 {
		t.Fatalf("in-progress = %d, want 0", got)
	}
	if got := tab.DeadRows(); got != 7 {
		t.Fatalf("dead rows = %d, want 7", got)
	}
}

func TestUpdateCreatesDeadRowsAndWAL(t *testing.T) {
	db := New(testConfig())
	tab := db.CreateTable("t", 100)
	ctrl := isolation.NewNull()
	b := db.Connect(ctrl, "w-1")
	defer b.Close()
	b.Update("t", 20)
	if got := tab.DeadRows(); got != 20 {
		t.Fatalf("dead rows = %d, want 20", got)
	}
	if got := db.WAL().Len(); got != 20 {
		t.Fatalf("wal entries = %d, want 20", got)
	}
}

func TestSelectForUpdateHoldsPartitionAcrossTables(t *testing.T) {
	cfg := testConfig()
	cfg.LockPartitions = 1
	db := New(cfg)
	db.CreateTable("ta", 100)
	db.CreateTable("tb", 100)
	ctrl := isolation.NewNull()
	locker := db.Connect(ctrl, "locker-1")
	reader := db.Connect(ctrl, "reader-1")
	defer locker.Close()
	defer reader.Close()

	locker.Begin()
	locker.SelectForUpdate("ta", 10*time.Microsecond)

	done := make(chan struct{})
	go func() {
		reader.Read("tb", 1) // different table, same partition
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("cross-table read completed while partition locked")
	case <-time.After(3 * time.Millisecond):
	}
	locker.Commit()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("read never completed after commit")
	}
}

func TestCloseCommitsOpenTransaction(t *testing.T) {
	cfg := testConfig()
	cfg.LockPartitions = 1
	db := New(cfg)
	tab := db.CreateTable("t", 100)
	ctrl := isolation.NewNull()
	b := db.Connect(ctrl, "b-1")
	b.Begin()
	b.Insert("t", 3)
	b.Close()
	if got := tab.InProgress(); got != 0 {
		t.Fatalf("in-progress after close = %d", got)
	}
}

func TestVacuumReclaimsDeadRows(t *testing.T) {
	cfg := testConfig()
	cfg.VacuumChunk = 50
	cfg.VacuumRowWork = time.Microsecond
	db := New(cfg)
	tab := db.CreateTable("t", 100)
	ctrl := isolation.NewNull()
	seed := db.Connect(ctrl, "seed-1")
	seed.Update("t", 200)
	seed.Close()

	vr := db.StartVacuum(ctrl, "t")
	deadline := time.Now().Add(2 * time.Second)
	for tab.DeadRows() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	vr.Stop()
	if got := tab.DeadRows(); got != 0 {
		t.Fatalf("dead rows = %d after vacuum, want 0", got)
	}
}

func TestVacuumBlocksReadersWhileCompacting(t *testing.T) {
	cfg := testConfig()
	cfg.LockPartitions = 1
	cfg.VacuumRowWork = parked // one pass, as long as the gate stays shut
	db := New(cfg)
	db.CreateTable("t", 100)
	w := watchPartition(db, "t")
	seed := db.Connect(w, "seed-1")
	seed.Update("t", 1)
	seed.Close()

	vr := db.StartVacuum(w, "t")
	defer vr.Stop()
	w.waitFor(t, "vacuum HOLD")

	reader := db.Connect(w, "r-1")
	defer reader.Close()
	done := make(chan struct{})
	go func() {
		reader.Read("t", 1)
		close(done)
	}()
	w.waitFor(t, "r-1 PREPARE")
	// The pass cannot end before the gate opens: the reader is still out.
	if got := db.partitionOf("t").Readers(); got >= 0 || w.index("r-1 HOLD") >= 0 {
		t.Fatalf("lock state %d, events %v: want the reader waiting behind the exclusive pass", got, w.log)
	}
	close(w.gate)
	<-done
}

func TestSharedScanAndExclusiveInterlock(t *testing.T) {
	cfg := testConfig()
	cfg.LockPartitions = 1
	db := New(cfg)
	db.CreateTable("t", 100)
	w := watchPartition(db, "t")
	sc := db.Connect(w, "s-1")
	wr := db.Connect(w, "w-1")
	defer sc.Close()
	defer wr.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); sc.SharedScan("t", parked) }()
	w.waitFor(t, "s-1 HOLD")
	go func() { defer wg.Done(); wr.AcquireExclusive("t", 10*time.Microsecond) }()
	w.waitFor(t, "w-1 PREPARE")
	// The scan cannot end before the gate opens: the writer is still out.
	if got := db.partitionOf("t").Readers(); got != 1 || w.index("w-1 HOLD") >= 0 {
		t.Fatalf("lock state %d, events %v: want the writer waiting behind the shared scan", got, w.log)
	}
	close(w.gate)
	wg.Wait()
}

func TestCommitWritesWAL(t *testing.T) {
	db := New(testConfig())
	db.CreateTable("t", 100)
	ctrl := isolation.NewNull()
	b := db.Connect(ctrl, "c-1")
	defer b.Close()
	before := db.WAL().Len()
	b.Begin()
	b.Commit()
	if got := db.WAL().Len(); got != before+1 {
		t.Fatalf("wal after commit = %d, want %d", got, before+1)
	}
}
