// Package sched provides the lightweight-process substrate ALPS objects run
// on (paper §3).
//
// The paper discusses three ways to obtain the process that executes a
// started entry procedure:
//
//   - create a process dynamically at call time (expensive on 1988 OSes;
//     cheap for goroutines — kept as ModeSpawn for comparison; an object
//     in this mode, its default, uses the process its caller already has
//     and only admits the task here, Go(nil); a body whose caller must
//     block before it can run it gets a process here after all),
//   - pre-create one process per hidden-procedure-array element when the
//     object is created (ModeOneToOne: "the mapping between the procedures
//     and processes is one-to-one"),
//   - pre-allocate a pool of M processes where M is much less than N and
//     bind a process to a call when it is started rather than when it
//     arrives (ModePooled: attractive "for resources in high demand where
//     the average number of waiting requests is significant").
//
// The paper suggests the programmer chooses between these with compiler
// switches; here it is a per-object option. Experiment E7 measures the
// trade-off.
//
// Worker hand-off uses a buffered channel: a submission is one non-blocking
// send and a worker picks it up with one receive, with no mutex or condition
// variable on the dispatch path. Submissions that find the channel full spill
// to an unbounded overflow list (Go must never block the manager, §2.3);
// workers drain the spill between channel receives.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Mode selects how processes are provided for started procedures.
type Mode int

const (
	// ModeSpawn creates a fresh process (goroutine) per started call.
	ModeSpawn Mode = iota + 1
	// ModeOneToOne pre-creates one worker per hidden-array element at
	// object creation time.
	ModeOneToOne
	// ModePooled pre-creates M workers (M typically much less than the
	// total array size) and binds one to a call at start time.
	ModePooled
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSpawn:
		return "spawn"
	case ModeOneToOne:
		return "one-to-one"
	case ModePooled:
		return "pooled"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrClosed is returned by Go after Close.
var ErrClosed = errors.New("sched: pool closed")

// Stats is a snapshot of pool activity.
type Stats struct {
	Mode             Mode
	Workers          int    // configured worker count (0 for ModeSpawn)
	ProcessesCreated uint64 // total processes ever created
	MaxResident      int    // peak simultaneously-live processes
	TasksExecuted    uint64 // tasks run, including those run by their submitter (Go(nil))
	MaxQueueLen      int    // peak tasks waiting for a worker
}

// Pool runs tasks on lightweight processes according to its Mode. Submission
// never blocks: a started procedure must run asynchronously with respect to
// the manager (paper §2.3), so excess tasks queue.
type Pool struct {
	mode    Mode
	workers int

	// tasks is the buffered dispatch channel. Workers receive from it
	// without touching mu; Go sends into it non-blockingly.
	tasks chan func()

	mu       sync.Mutex
	overflow []func() // tasks that found the channel full, FIFO
	closed   bool

	wg     sync.WaitGroup // persistent workers and spawned processes
	taskWG sync.WaitGroup // outstanding (queued or running) tasks

	// executed is the one counter workers touch per task; atomic so the
	// completion path stays lock-free.
	executed atomic.Uint64

	created  uint64
	resident int
	maxRes   int
	maxQueue int
}

// New creates a pool. workers is the pre-created process count for
// ModeOneToOne (the total hidden-array size) and ModePooled (M); it is
// ignored for ModeSpawn.
func New(mode Mode, workers int) (*Pool, error) {
	switch mode {
	case ModeSpawn:
		workers = 0
	case ModeOneToOne, ModePooled:
		if workers < 1 {
			return nil, fmt.Errorf("sched: mode %v requires at least 1 worker, got %d", mode, workers)
		}
	default:
		return nil, fmt.Errorf("sched: unknown mode %d", int(mode))
	}
	p := &Pool{mode: mode, workers: workers}
	p.created = uint64(workers)
	p.resident = workers
	p.maxRes = workers
	if workers > 0 {
		depth := workers * 8
		if depth < 16 {
			depth = 16
		}
		p.tasks = make(chan func(), depth)
		for i := 0; i < workers; i++ {
			p.wg.Add(1)
			go p.worker()
		}
	}
	return p, nil
}

// Mode reports the pool's mode.
func (p *Pool) Mode() Mode { return p.mode }

// Go submits a task. It never blocks the caller; the task runs on a pool
// process as soon as one is available.
//
// A nil f is a task its submitter runs on a process it already has: an
// object's body run by the caller that waits for it. Go only admits such a
// task — ErrClosed after Close, otherwise one more TasksExecuted — and
// creates no process for it; Wait and Close do not wait for it.
func (p *Pool) Go(f func()) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if f == nil {
		p.mu.Unlock()
		p.executed.Add(1)
		return nil
	}
	p.taskWG.Add(1)
	if p.mode == ModeSpawn {
		p.created++
		p.resident++
		if p.resident > p.maxRes {
			p.maxRes = p.resident
		}
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer p.taskWG.Done()
			f()
			p.executed.Add(1)
			p.mu.Lock()
			p.resident--
			p.mu.Unlock()
		}()
		return nil
	}
	select {
	case p.tasks <- f:
	default:
		p.overflow = append(p.overflow, f)
		// The workers may have drained the whole channel between the
		// failed send and the append; with every worker now blocked on
		// an empty channel nothing would ever revisit the overflow, so
		// push spilled heads back out while there is room. After this
		// loop either the overflow is empty or the channel is full —
		// and a full channel guarantees a worker will complete a task
		// ordered after this append and drain the spill.
		for len(p.overflow) > 0 {
			select {
			case p.tasks <- p.overflow[0]:
				p.overflow[0] = nil
				p.overflow = p.overflow[1:]
			default:
				goto spilled
			}
		}
	spilled:
	}
	if q := len(p.tasks) + len(p.overflow); q > p.maxQueue {
		p.maxQueue = q
	}
	p.mu.Unlock()
	return nil
}

// Wait blocks until all submitted tasks have completed. It does not prevent
// new submissions.
func (p *Pool) Wait() {
	p.taskWG.Wait()
}

// Close stops accepting tasks, waits for queued and running tasks to finish,
// and shuts down the workers. It is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.taskWG.Wait()
	if p.tasks != nil {
		close(p.tasks)
	}
	p.wg.Wait()
}

// Stats returns a snapshot of pool activity.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Mode:             p.mode,
		Workers:          p.workers,
		ProcessesCreated: p.created,
		MaxResident:      p.maxRes,
		TasksExecuted:    p.executed.Load(),
		MaxQueueLen:      p.maxQueue,
	}
}

// runTask executes one task and retires it.
func (p *Pool) runTask(f func()) {
	f()
	p.executed.Add(1)
	p.taskWG.Done()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for f := range p.tasks {
		p.runTask(f)
		// Drain spilled tasks before blocking on the channel again.
		for {
			p.mu.Lock()
			if len(p.overflow) == 0 {
				p.mu.Unlock()
				break
			}
			g := p.overflow[0]
			p.overflow[0] = nil
			p.overflow = p.overflow[1:]
			p.mu.Unlock()
			p.runTask(g)
		}
	}
	p.mu.Lock()
	p.resident--
	p.mu.Unlock()
}
