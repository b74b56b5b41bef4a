package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	alps "repro"
)

// Sched16 is the deep guard-scan fixture (ROADMAP item 5): a resource
// allocator whose manager decides every grant. A caller asks for its
// class's share with Req<class> and gives it back with Release. Each of the
// 16 Req entries is a hidden array of 64 guarded by "when free >= need"
// (manager state) and ordered by "pri call id + class bias", so with ~1000
// callers one selection evaluates a when for every pending call of every
// class and a pri for every eligible one — §3's cost at the depth where it
// is largest. bench/ carries its own copy of this shape for the black-box
// rig; this is the one definition the in-repo benchmarks share.
type Sched16 struct {
	Obj *alps.Object

	// Written by the manager only; read after Close.
	Negative   int64 // grants that drove free below zero
	OutOfOrder int64 // grants that overtook an older call of the same class
	lastID     [Sched16Classes]uint64
}

const (
	Sched16Classes = 16
	Sched16Array   = 64   // hidden procedure array per class
	Sched16Callers = 1024 // keeps ~1000 Req calls pending
	sched16Units   = 8
	// sched16Bias is how many call ids of head start one class has over the
	// next: a low class overtakes higher ones that arrived up to that many
	// calls earlier, and no class starves.
	sched16Bias = 64
)

func sched16Need(class int) int { return 1 + class%4 }

func sched16Req(class int) string { return fmt.Sprintf("Req%02d", class) }

// NewSched16 builds the allocator object.
func NewSched16() (*Sched16, error) {
	s := &Sched16{}
	nop := func(*alps.Invocation) error { return nil }
	opts := []alps.Option{alps.WithEntry(alps.EntrySpec{Name: "Release", Params: 1, Body: nop})}
	intercepts := []alps.InterceptSpec{alps.InterceptPR("Release", 1, 0)}
	for c := 0; c < Sched16Classes; c++ {
		opts = append(opts, alps.WithEntry(alps.EntrySpec{Name: sched16Req(c), Array: Sched16Array, Body: nop}))
		intercepts = append(intercepts, alps.Intercept(sched16Req(c)))
	}
	manager := func(m *alps.Mgr) {
		free := sched16Units
		guards := []alps.Guard{
			alps.OnAccept("Release", func(a *alps.Accepted) {
				n, _ := a.Params[0].(int)
				if _, err := m.Execute(a); err == nil {
					free += n
				}
			}),
		}
		for c := 0; c < Sched16Classes; c++ {
			c, need := c, sched16Need(c)
			guards = append(guards, alps.OnAccept(sched16Req(c), func(a *alps.Accepted) {
				if id := a.CallID(); id < s.lastID[c] {
					s.OutOfOrder++
				} else {
					s.lastID[c] = id
				}
				if _, err := m.Execute(a); err == nil {
					if free -= need; free < 0 {
						s.Negative++
					}
				}
			}).When(func(*alps.Accepted) bool {
				return free >= need
			}).PriAccept(func(a *alps.Accepted) int {
				return int(a.CallID()) + c*sched16Bias
			}))
		}
		_ = m.Loop(guards...) // returns when the object closes
	}
	obj, err := alps.New("Sched16", append(opts, alps.WithManager(manager, intercepts...))...)
	if err != nil {
		return nil, err
	}
	s.Obj = obj
	return s, nil
}

// Run drives Sched16Callers goroutines, each alternately asking for its
// class's share and giving it back, until calls calls (Req or Release) have
// completed in total (plus at most one uncounted Release per caller while
// winding down); then it closes the object and reports the manager's
// violation count (0 when every grant respected the guards).
func (s *Sched16) Run(calls int64) (violations int64, err error) {
	var (
		left  atomic.Int64
		wg    sync.WaitGroup
		first atomic.Pointer[error]
	)
	left.Store(calls)
	for i := 0; i < Sched16Callers; i++ {
		wg.Add(1)
		go func(class int) {
			defer wg.Done()
			holding := false
			for left.Add(-1) >= 0 {
				var err error
				if holding {
					_, err = s.Obj.Call("Release", sched16Need(class))
				} else {
					_, err = s.Obj.Call(sched16Req(class))
				}
				if err != nil {
					first.CompareAndSwap(nil, &err)
					return
				}
				holding = !holding
			}
			if holding {
				// Give the share back (uncounted) so the callers still
				// parked in Req are granted and can wind down too.
				if _, err := s.Obj.Call("Release", sched16Need(class)); err != nil {
					first.CompareAndSwap(nil, &err)
				}
			}
		}(i % Sched16Classes)
	}
	wg.Wait()
	// Close returns once the manager process has exited, which makes its
	// plain fields safe to read.
	if cerr := s.Obj.Close(); cerr != nil && first.Load() == nil {
		first.Store(&cerr)
	}
	if p := first.Load(); p != nil {
		err = *p
	}
	return s.Negative + s.OutOfOrder, err
}
