package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestModeString(t *testing.T) {
	tests := []struct {
		mode Mode
		want string
	}{
		{ModeSpawn, "spawn"},
		{ModeOneToOne, "one-to-one"},
		{ModePooled, "pooled"},
		{Mode(99), "Mode(99)"},
	}
	for _, tt := range tests {
		if got := tt.mode.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.mode), got, tt.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(ModePooled, 0); err == nil {
		t.Error("New(ModePooled, 0) succeeded, want error")
	}
	if _, err := New(ModeOneToOne, -1); err == nil {
		t.Error("New(ModeOneToOne, -1) succeeded, want error")
	}
	if _, err := New(Mode(42), 1); err == nil {
		t.Error("New with unknown mode succeeded, want error")
	}
	p, err := New(ModeSpawn, 1234) // workers ignored for spawn
	if err != nil {
		t.Fatalf("New(ModeSpawn): %v", err)
	}
	if s := p.Stats(); s.Workers != 0 {
		t.Errorf("spawn pool Workers = %d, want 0", s.Workers)
	}
	p.Close()
}

func runAll(t *testing.T, mode Mode, workers, tasks int) *Pool {
	t.Helper()
	p, err := New(mode, workers)
	if err != nil {
		t.Fatal(err)
	}
	var done int64
	for i := 0; i < tasks; i++ {
		if err := p.Go(func() { atomic.AddInt64(&done, 1) }); err != nil {
			t.Fatalf("Go: %v", err)
		}
	}
	p.Wait()
	if got := atomic.LoadInt64(&done); got != int64(tasks) {
		t.Fatalf("mode %v: executed %d tasks, want %d", mode, got, tasks)
	}
	return p
}

func TestAllModesRunAllTasks(t *testing.T) {
	for _, mode := range []Mode{ModeSpawn, ModeOneToOne, ModePooled} {
		t.Run(mode.String(), func(t *testing.T) {
			p := runAll(t, mode, 4, 200)
			defer p.Close()
			if s := p.Stats(); s.TasksExecuted < 200 {
				t.Errorf("TasksExecuted = %d, want >= 200", s.TasksExecuted)
			}
		})
	}
}

func TestGoNeverBlocks(t *testing.T) {
	// One worker, tasks that block until released: submission must still be
	// immediate because the manager may never be blocked by a start.
	p, err := New(ModePooled, 1)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	for i := 0; i < 100; i++ {
		if err := p.Go(func() { <-release }); err != nil {
			t.Fatal(err)
		}
	}
	// All Go calls returned already; release and close.
	close(release)
	p.Close()
	if s := p.Stats(); s.MaxQueueLen < 90 {
		t.Errorf("MaxQueueLen = %d, expected deep queue with 1 worker", s.MaxQueueLen)
	}
}

func TestPooledBoundsResidentProcesses(t *testing.T) {
	const m = 3
	p, err := New(ModePooled, m)
	if err != nil {
		t.Fatal(err)
	}
	var concurrent, peak int64
	var mu sync.Mutex
	for i := 0; i < 50; i++ {
		if err := p.Go(func() {
			c := atomic.AddInt64(&concurrent, 1)
			mu.Lock()
			if c > peak {
				peak = c
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&concurrent, -1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	mu.Lock()
	defer mu.Unlock()
	if peak > m {
		t.Fatalf("observed %d concurrent tasks, pool has only %d workers", peak, m)
	}
	if s := p.Stats(); s.ProcessesCreated != m {
		t.Fatalf("ProcessesCreated = %d, want exactly %d (bound at start time)", s.ProcessesCreated, m)
	}
}

func TestSpawnCreatesProcessPerTask(t *testing.T) {
	p, err := New(ModeSpawn, 0)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 25
	for i := 0; i < tasks; i++ {
		if err := p.Go(func() {}); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if s := p.Stats(); s.ProcessesCreated != tasks {
		t.Fatalf("ProcessesCreated = %d, want %d (one per task)", s.ProcessesCreated, tasks)
	}
}

// TestStatsCountSubmitterRunTasks pins what the counters mean once tasks
// run on their submitters (Go(nil), an object's caller-run bodies):
// TasksExecuted counts every task, ProcessesCreated and MaxResident only
// the processes the pool itself provided. Go(nil) still fails after Close.
func TestStatsCountSubmitterRunTasks(t *testing.T) {
	for _, mode := range []Mode{ModeSpawn, ModeOneToOne, ModePooled} {
		p, err := New(mode, 2)
		if err != nil {
			t.Fatal(err)
		}
		const own, pooled = 30, 5
		for i := 0; i < own; i++ {
			if err := p.Go(nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < pooled; i++ {
			if err := p.Go(func() {}); err != nil {
				t.Fatal(err)
			}
		}
		p.Wait()
		workers := uint64(2)
		if mode == ModeSpawn {
			workers = pooled // one process per pool-run task
		}
		if s := p.Stats(); s.TasksExecuted != own+pooled || s.ProcessesCreated != workers {
			t.Errorf("%v: Stats = %+v; want %d executed, %d created", mode, s, own+pooled, workers)
		}
		p.Close()
		if err := p.Go(nil); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: Go(nil) after Close = %v, want ErrClosed", mode, err)
		}
	}
}

func TestCloseWaitsForTasks(t *testing.T) {
	for _, mode := range []Mode{ModeSpawn, ModeOneToOne, ModePooled} {
		t.Run(mode.String(), func(t *testing.T) {
			p, err := New(mode, 2)
			if err != nil {
				t.Fatal(err)
			}
			var done atomic.Bool
			if err := p.Go(func() {
				time.Sleep(20 * time.Millisecond)
				done.Store(true)
			}); err != nil {
				t.Fatal(err)
			}
			p.Close()
			if !done.Load() {
				t.Fatal("Close returned before task completed")
			}
		})
	}
}

func TestGoAfterClose(t *testing.T) {
	p, err := New(ModePooled, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := p.Go(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Go after Close: err = %v, want ErrClosed", err)
	}
	p.Close() // idempotent
}

func TestOneToOneStats(t *testing.T) {
	const n = 8
	p, err := New(ModeOneToOne, n)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.ProcessesCreated != n || s.MaxResident != n {
		t.Fatalf("one-to-one created/resident = %d/%d, want %d/%d (pre-created at object creation)",
			s.ProcessesCreated, s.MaxResident, n, n)
	}
	p.Close()
}

func TestTasksRunConcurrentlyUpToWorkers(t *testing.T) {
	const m = 4
	p, err := New(ModePooled, m)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// m tasks that can only finish when all m are running proves the pool
	// really provides m concurrent processes.
	var started sync.WaitGroup
	started.Add(m)
	gate := make(chan struct{})
	for i := 0; i < m; i++ {
		if err := p.Go(func() {
			started.Done()
			<-gate
		}); err != nil {
			t.Fatal(err)
		}
	}
	allStarted := make(chan struct{})
	go func() { started.Wait(); close(allStarted) }()
	select {
	case <-allStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not run m tasks concurrently")
	}
	close(gate)
}

// Property: for any mode and worker count, every submitted task runs
// exactly once and Close leaves no residue.
func TestQuickPoolRunsEverything(t *testing.T) {
	modes := []Mode{ModeSpawn, ModeOneToOne, ModePooled}
	for seed := 0; seed < 12; seed++ {
		mode := modes[seed%3]
		workers := seed%4 + 1
		tasks := (seed * 7 % 40) + 1
		p, err := New(mode, workers)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var ran atomic.Int64
		for i := 0; i < tasks; i++ {
			if err := p.Go(func() { ran.Add(1) }); err != nil {
				t.Fatalf("seed %d: Go: %v", seed, err)
			}
		}
		p.Close()
		if got := ran.Load(); got != int64(tasks) {
			t.Fatalf("seed %d: mode %v ran %d of %d tasks", seed, mode, got, tasks)
		}
		if s := p.Stats(); s.TasksExecuted != uint64(tasks) {
			t.Fatalf("seed %d: TasksExecuted = %d, want %d", seed, s.TasksExecuted, tasks)
		}
	}
}
