// Package diskhead implements a disk-head scheduler using the paper's
// run-time priority clause (§2.4): "pri E" where E may use values received
// by the accept. The manager accepts the pending Seek whose requested track
// is closest to the current head position — shortest-seek-time-first —
// something compile-time priorities cannot express.
package diskhead

import (
	"fmt"
	"sync/atomic"
	"time"

	alps "repro"
)

// Scheduler orders Seek requests by proximity to the disk head.
type Scheduler struct {
	obj *alps.Object

	totalSeek atomic.Int64
	services  atomic.Uint64
}

// Policy selects the scheduling discipline, each expressed as a different
// run-time priority function over the same accept guard.
type Policy int

const (
	// SSTF serves the pending request closest to the head
	// (shortest-seek-time-first), the paper's canonical pri example.
	SSTF Policy = iota + 1
	// SCAN is the elevator: requests ahead in the current sweep direction
	// first (closest first), reversing when none remain ahead.
	SCAN
	// FCFS serves requests in arrival order (pri = arrival id).
	FCFS
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case SSTF:
		return "SSTF"
	case SCAN:
		return "SCAN"
	case FCFS:
		return "FCFS"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config configures the scheduler.
type Config struct {
	QueueMax  int           // hidden Seek array size (how many requests are schedulable)
	Start     int           // initial head position
	Cylinders int           // track space, needed by SCAN (default 1000)
	Policy    Policy        // scheduling discipline (default SSTF)
	TrackCost time.Duration // simulated head travel time per track moved
}

// New creates a disk-head scheduler.
func New(cfg Config) (*Scheduler, error) { return newScheduler(cfg) }

// newScheduler is New with extra object options: the package's tests pass
// a trace recorder to read the service order, and a sequencer to hold the
// head until a request set is pending.
func newScheduler(cfg Config, opts ...alps.Option) (*Scheduler, error) {
	if cfg.QueueMax == 0 {
		cfg.QueueMax = 16
	}
	if cfg.QueueMax < 1 {
		return nil, fmt.Errorf("diskhead: QueueMax %d", cfg.QueueMax)
	}
	if cfg.Policy == 0 {
		cfg.Policy = SSTF
	}
	if cfg.Cylinders == 0 {
		cfg.Cylinders = 1000
	}
	if cfg.Cylinders < 1 {
		return nil, fmt.Errorf("diskhead: %d cylinders", cfg.Cylinders)
	}
	s := &Scheduler{}

	seek := func(inv *alps.Invocation) error {
		// The distance arrives as a hidden parameter (§2.8): the manager
		// computes it from its private head position; the body turns it
		// into simulated head travel time.
		distance := inv.Hidden(0).(int)
		if cfg.TrackCost > 0 && distance > 0 {
			select {
			case <-time.After(time.Duration(distance) * cfg.TrackCost):
			case <-inv.Done():
			}
		}
		inv.Return(inv.Param(0)) // the track, echoed back on completion
		return nil
	}

	manager := func(m *alps.Mgr) {
		head := cfg.Start
		up := true // SCAN sweep direction
		abs := func(x int) int {
			if x < 0 {
				return -x
			}
			return x
		}
		// pri computes the run-time priority of a pending request under the
		// configured discipline; smallest wins (§2.4).
		pri := func(a *alps.Accepted) int {
			track := a.Params[0].(int)
			switch cfg.Policy {
			case SCAN:
				// Requests ahead in the sweep direction rank by proximity;
				// requests behind rank after every ahead request.
				if up {
					if track >= head {
						return track - head
					}
					return cfg.Cylinders + (head - track)
				}
				if track <= head {
					return head - track
				}
				return cfg.Cylinders + (track - head)
			case FCFS:
				return int(a.CallID())
			default: // SSTF
				return abs(track - head)
			}
		}
		_ = m.Loop(
			alps.OnAccept("Seek", func(a *alps.Accepted) {
				track := a.Params[0].(int)
				distance := abs(track - head)
				s.totalSeek.Add(int64(distance))
				s.services.Add(1)
				if cfg.Policy == SCAN {
					if track > head {
						up = true
					} else if track < head {
						up = false
					}
				}
				head = track
				// The head is a serial resource: execute runs the seek to
				// completion before the next request is considered.
				if _, err := m.Execute(a, distance); err != nil {
					return
				}
			}).PriAccept(pri),
		)
	}

	obj, err := alps.New("DiskHead", append([]alps.Option{
		alps.WithEntry(alps.EntrySpec{
			Name: "Seek", Params: 1, Results: 1, Array: cfg.QueueMax,
			HiddenParams: 1, Body: seek,
		}),
		alps.WithManager(manager, alps.InterceptPR("Seek", 1, 0)),
	}, opts...)...)
	if err != nil {
		return nil, err
	}
	s.obj = obj
	return s, nil
}

// Seek requests the head to visit track; it returns when the request has
// been serviced.
func (s *Scheduler) Seek(track int) error {
	_, err := s.obj.Call("Seek", track)
	return err
}

// Stats reports the number of serviced requests and the total head travel
// distance.
func (s *Scheduler) Stats() (services uint64, totalSeek int64) {
	return s.services.Load(), s.totalSeek.Load()
}

// Object exposes the underlying ALPS object.
func (s *Scheduler) Object() *alps.Object { return s.obj }

// Close shuts the scheduler down.
func (s *Scheduler) Close() error { return s.obj.Close() }

// GreedySSTF computes the total seek distance of the offline greedy
// shortest-seek-time-first order over tracks, starting from start — the
// reference the manager's online schedule is compared against when all
// requests are pending before service begins.
func GreedySSTF(start int, tracks []int) int64 {
	remaining := append([]int(nil), tracks...)
	head := start
	var total int64
	for len(remaining) > 0 {
		best, bestDist := 0, -1
		for i, tr := range remaining {
			d := tr - head
			if d < 0 {
				d = -d
			}
			if bestDist < 0 || d < bestDist {
				best, bestDist = i, d
			}
		}
		total += int64(bestDist)
		head = remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return total
}

// FIFOSeek computes the total seek distance of first-come-first-served
// order, the baseline SSTF is compared against.
func FIFOSeek(start int, tracks []int) int64 {
	head := start
	var total int64
	for _, tr := range tracks {
		d := tr - head
		if d < 0 {
			d = -d
		}
		total += int64(d)
		head = tr
	}
	return total
}
