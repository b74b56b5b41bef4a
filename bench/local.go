package main

import (
	"fmt"
	"sync/atomic"

	alps "repro"
	"repro/internal/objects/buffer"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---- local-shallow: the paper's bounded buffer (§2.4.1) ----

const bufferSlots = 8

// bufferDriver is one producer and one consumer on an in-process Buffer.
// The producer deposits the seed's random stream; the consumer regenerates
// the same stream and requires every Remove to return its next element,
// which is FIFO order and conservation in one check.
type bufferDriver struct {
	buf      *buffer.Buffer
	rec      *trace.Recorder // nil unless traced
	in, out  *workload.RNG
	removed  atomic.Int64
	deposits atomic.Int64
	bad      atomic.Int64
	firstBad atomic.Pointer[string]
}

// newRecorder returns the alps.WithTrace recorder of a traced object.
func newRecorder(traced bool) *trace.Recorder {
	if !traced {
		return nil
	}
	return alps.NewTrace(0)
}

func newBufferDriver(seed uint64, traced bool) (*bufferDriver, error) {
	rec := newRecorder(traced)
	buf, err := buffer.New(bufferSlots, traceOpt(rec)...)
	if err != nil {
		return nil, err
	}
	return &bufferDriver{buf: buf, rec: rec, in: workload.NewRNG(seed), out: workload.NewRNG(seed)}, nil
}

func (d *bufferDriver) clients() int { return 2 }

func (d *bufferDriver) next(client int) (bool, error) {
	if client == 0 {
		err := d.buf.Deposit(int64(d.in.Uint64() >> 1))
		if err == nil {
			d.deposits.Add(1)
		}
		return true, err
	}
	msg, err := d.buf.Remove()
	if err != nil {
		return false, err
	}
	want := int64(d.out.Uint64() >> 1)
	if got, _ := msg.(int64); got != want {
		d.bad.Add(1)
		s := fmt.Sprintf("Remove #%d returned %v, the producer's message #%d was %d", d.removed.Load(), msg, d.removed.Load(), want)
		d.firstBad.CompareAndSwap(nil, &s)
	}
	d.removed.Add(1)
	return false, nil
}

// verify checks conservation once both sides have stopped: whatever was
// deposited and not removed must fit in the buffer.
func (d *bufferDriver) verify() (int64, error) {
	if left := d.deposits.Load() - d.removed.Load(); left < 0 || left > bufferSlots {
		d.bad.Add(1)
		s := fmt.Sprintf("%d deposited, %d removed: %d messages unaccounted for", d.deposits.Load(), d.removed.Load(), left)
		d.firstBad.CompareAndSwap(nil, &s)
	}
	return 1, nil
}

func (d *bufferDriver) violations() (int64, string) { return d.bad.Load(), deref(d.firstBad.Load()) }

// release closes the buffer: the side parked on a full or empty buffer
// returns ErrClosed after the phase is over, which the loop discards.
func (d *bufferDriver) release() { _ = d.buf.Close() }
func (d *bufferDriver) close()   { _ = d.buf.Close() }

func deref(p *string) string {
	if p == nil {
		return ""
	}
	return *p
}

// ---- local-deep: Sched16, a guard-heavy scheduler built from the public API ----

const (
	schedClasses = 16
	schedArray   = 64   // hidden procedure array per class: 16 x 64 = 1024 attachable calls
	schedCallers = 1024 // keeps ~1000 Req calls pending
	schedUnits   = 8    // units the allocator hands out
	// schedBias is how many call ids of head start one class has over the
	// next: a low class overtakes higher ones that arrived up to schedBias
	// calls earlier, and no class starves.
	schedBias = 64
)

func schedNeed(class int) int { return 1 + class%4 }

// sched16 is a resource allocator whose manager decides every grant: a
// caller asks for its class's share with Req<class>, and gives it back with
// Release. Each Req entry is guarded by "when free >= need(class)" and
// ordered by "pri f(class, call id)", so one selection re-evaluates a when
// and a pri for every pending call of every class — the cost the paper's §3
// asks to be kept small, at the depth where it is largest.
type sched16 struct {
	obj *alps.Object

	// Written by the manager only; read by verify after Close.
	negative   int64                // grants that drove free below zero
	outOfOrder int64                // grants that overtook an older call of the same class
	lastID     [schedClasses]uint64 // last granted call id, by class
}

func reqName(class int) string { return fmt.Sprintf("Req%02d", class) }

func newSched16(rec *trace.Recorder) (*sched16, error) {
	s := &sched16{}
	opts := traceOpt(rec)
	intercepts := []alps.InterceptSpec{alps.InterceptPR("Release", 1, 0)}
	nop := func(*alps.Invocation) error { return nil }
	for c := 0; c < schedClasses; c++ {
		opts = append(opts, alps.WithEntry(alps.EntrySpec{Name: reqName(c), Array: schedArray, Body: nop}))
		intercepts = append(intercepts, alps.Intercept(reqName(c)))
	}
	opts = append(opts, alps.WithEntry(alps.EntrySpec{Name: "Release", Params: 1, Body: nop}))
	manager := func(m *alps.Mgr) {
		free := schedUnits
		guards := []alps.Guard{
			alps.OnAccept("Release", func(a *alps.Accepted) {
				n, _ := a.Params[0].(int)
				if _, err := m.Execute(a); err == nil {
					free += n
				}
			}),
		}
		for c := 0; c < schedClasses; c++ {
			c, need := c, schedNeed(c)
			guards = append(guards, alps.OnAccept(reqName(c), func(a *alps.Accepted) {
				if id := a.CallID(); id < s.lastID[c] {
					s.outOfOrder++
				} else {
					s.lastID[c] = id
				}
				if _, err := m.Execute(a); err == nil {
					if free -= need; free < 0 {
						s.negative++
					}
				}
			}).When(func(*alps.Accepted) bool {
				return free >= need
			}).PriAccept(func(a *alps.Accepted) int {
				return int(a.CallID()) + c*schedBias
			}))
		}
		_ = m.Loop(guards...) // returns when the object closes
	}
	obj, err := alps.New("Sched16", append(opts, alps.WithManager(manager, intercepts...))...)
	if err != nil {
		return nil, err
	}
	s.obj = obj
	return s, nil
}

// schedDriver runs schedCallers goroutines, each forever asking for its
// class's share and giving it back. One call is one Req or one Release.
type schedDriver struct {
	s       *sched16
	rec     *trace.Recorder // nil unless traced
	class   []int           // caller -> class, shuffled by the seed
	holding []bool          // caller -> holds its share (each element owned by one goroutine)
	bad     atomic.Int64
}

func newSchedDriver(seed uint64, traced bool) (*schedDriver, error) {
	rec := newRecorder(traced)
	s, err := newSched16(rec)
	if err != nil {
		return nil, err
	}
	d := &schedDriver{s: s, rec: rec, class: make([]int, schedCallers), holding: make([]bool, schedCallers)}
	for i := range d.class {
		d.class[i] = i % schedClasses
	}
	rng := workload.NewRNG(seed)
	for i := len(d.class) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		d.class[i], d.class[j] = d.class[j], d.class[i]
	}
	return d, nil
}

func (d *schedDriver) clients() int { return schedCallers }

func (d *schedDriver) next(client int) (bool, error) {
	c := d.class[client]
	if d.holding[client] {
		_, err := d.s.obj.Call("Release", schedNeed(c))
		d.holding[client] = err != nil
		return true, err
	}
	_, err := d.s.obj.Call(reqName(c))
	d.holding[client] = err == nil
	return false, err
}

// pending sums the Req entries' #P, the depth the guards are evaluated over.
func (d *schedDriver) pending() int {
	n := 0
	for c := 0; c < schedClasses; c++ {
		if st, ok := d.s.obj.EntryStats(reqName(c)); ok {
			n += st.Pending
		}
	}
	return n
}

// verify reads the manager's own bookkeeping. Close returns only once the
// manager process has exited, which makes its plain fields safe to read.
func (d *schedDriver) verify() (int64, error) {
	_ = d.s.obj.Close()
	d.bad.Add(d.s.negative + d.s.outOfOrder)
	return 1, nil
}

func (d *schedDriver) violations() (int64, string) {
	if n := d.bad.Load(); n > 0 {
		return n, fmt.Sprintf("Sched16: %d grants drove free negative, %d overtook an older call of their class", d.s.negative, d.s.outOfOrder)
	}
	return 0, ""
}

func (d *schedDriver) release() { _ = d.s.obj.Close() }
func (d *schedDriver) close()   { _ = d.s.obj.Close() }
