// Package allocator implements a counting resource allocator, the paper's
// §1 motivation that "the manager can request the call and then delay it
// until it is mature for execution … if the scheduling of the call
// requires further processing based on the invocation parameters": a call
// Acquire(n) must wait until n units are free, so the acceptance condition
// depends on the parameter value itself.
//
// Two admission policies show the scheduling flexibility the paper claims:
// FirstFit accepts any pending request that currently fits (high
// utilization, may starve large requests); Ordered admits strictly in
// arrival order (no starvation, may idle units). The policy is one line of
// manager code.
package allocator

import (
	"fmt"
	"sync/atomic"

	alps "repro"
)

// Policy selects the admission order.
type Policy int

const (
	// FirstFit admits any pending request that fits right now.
	FirstFit Policy = iota + 1
	// Ordered admits requests strictly in arrival order: a large request
	// at the head blocks later small ones (no starvation).
	Ordered
)

// Config configures an allocator.
type Config struct {
	Units      int    // total resource units
	AcquireMax int    // hidden Acquire array size (default 16)
	Policy     Policy // admission policy (default FirstFit)
}

// Allocator manages a pool of identical resource units.
type Allocator struct {
	obj   *alps.Object
	units int

	inUse      atomic.Int64 // monitoring
	peakInUse  atomic.Int64
	violations atomic.Int64 // over-allocation, always 0 if the manager is correct
}

// New creates an allocator with cfg.Units units.
func New(cfg Config) (*Allocator, error) {
	if cfg.Units < 1 {
		return nil, fmt.Errorf("allocator: %d units", cfg.Units)
	}
	if cfg.AcquireMax == 0 {
		cfg.AcquireMax = 16
	}
	if cfg.AcquireMax < 1 {
		return nil, fmt.Errorf("allocator: AcquireMax %d", cfg.AcquireMax)
	}
	if cfg.Policy == 0 {
		cfg.Policy = FirstFit
	}
	a := &Allocator{units: cfg.Units}

	acquire := func(inv *alps.Invocation) error {
		n := int64(inv.Param(0).(int))
		cur := a.inUse.Add(n)
		if cur > int64(a.units) {
			a.violations.Add(1)
		}
		for {
			peak := a.peakInUse.Load()
			if cur <= peak || a.peakInUse.CompareAndSwap(peak, cur) {
				break
			}
		}
		return nil
	}
	release := func(inv *alps.Invocation) error {
		a.inUse.Add(-int64(inv.Param(0).(int)))
		return nil
	}

	manager := func(m *alps.Mgr) {
		free := cfg.Units
		var guards []alps.Guard
		common := []alps.Guard{
			alps.OnAccept("Release", func(acc *alps.Accepted) {
				if _, err := m.Execute(acc); err == nil {
					free += acc.Params[0].(int)
				}
			}),
			alps.OnAwait("Acquire", func(aw *alps.Awaited) {
				_ = m.Finish(aw)
			}),
		}
		switch cfg.Policy {
		case Ordered:
			// Strict arrival order: requests are accepted (and parked) in
			// arrival order — run-time pri over call ids — then started
			// head-first whenever the head fits. A large request at the
			// head blocks later small ones, so nobody starves.
			var parked []*alps.Accepted
			guards = append(common,
				alps.OnAccept("Acquire", func(acc *alps.Accepted) {
					parked = append(parked, acc)
				}).PriAccept(func(acc *alps.Accepted) int { return int(acc.CallID()) }),
				alps.OnCond(func() bool {
					return len(parked) > 0 && parked[0].Params[0].(int) <= free
				}, func() {
					head := parked[0]
					parked = parked[1:]
					if err := m.Start(head); err == nil {
						free -= head.Params[0].(int)
					}
				}),
			)
		default: // FirstFit
			guards = append(common,
				alps.OnAccept("Acquire", func(acc *alps.Accepted) {
					n := acc.Params[0].(int)
					if err := m.Start(acc); err == nil {
						free -= n
					}
				}).When(func(acc *alps.Accepted) bool {
					// The acceptance condition reads the invocation parameter.
					return acc.Params[0].(int) <= free
				}),
			)
		}
		_ = m.Loop(guards...)
	}

	obj, err := alps.New("Allocator",
		alps.WithEntry(alps.EntrySpec{Name: "Acquire", Params: 1, Array: cfg.AcquireMax, Body: acquire}),
		alps.WithEntry(alps.EntrySpec{Name: "Release", Params: 1, Array: 4, Body: release}),
		alps.WithManager(manager, alps.InterceptPR("Acquire", 1, 0), alps.InterceptPR("Release", 1, 0)),
	)
	if err != nil {
		return nil, err
	}
	a.obj = obj
	return a, nil
}

// Acquire blocks until n units are available and claims them.
func (a *Allocator) Acquire(n int) error {
	if n < 1 || n > a.units {
		return fmt.Errorf("allocator: acquire %d of %d units", n, a.units)
	}
	_, err := a.obj.Call("Acquire", n)
	return err
}

// Release returns n units to the pool.
func (a *Allocator) Release(n int) error {
	if n < 1 {
		return fmt.Errorf("allocator: release %d", n)
	}
	_, err := a.obj.Call("Release", n)
	return err
}

// Stats reports peak units in use and over-allocation violations.
func (a *Allocator) Stats() (peak int, violations int) {
	return int(a.peakInUse.Load()), int(a.violations.Load())
}

// Units reports the configured pool size.
func (a *Allocator) Units() int { return a.units }

// Object exposes the underlying ALPS object.
func (a *Allocator) Object() *alps.Object { return a.obj }

// Close shuts the allocator down.
func (a *Allocator) Close() error { return a.obj.Close() }
