//go:build !race

package core

import (
	"sync"
	"testing"
)

// Allocation regression tests for the pooled call pipeline (PR 2). Limits
// are set with modest headroom over the measured steady state so genuine
// regressions fail while scheduler noise does not. Race builds are excluded:
// the race runtime allocates on its own account.

func newEchoManaged(t *testing.T) *Object {
	t.Helper()
	o, err := New("X",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1,
			Body: func(inv *Invocation) error { inv.Return(inv.Param(0)); return nil }}),
		WithManager(func(m *Mgr) {
			for {
				a, err := m.Accept("P")
				if err != nil {
					return
				}
				if _, err := m.Execute(a); err != nil {
					return
				}
			}
		}, Intercept("P")),
	)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestAllocsManagedExecute(t *testing.T) {
	o := newEchoManaged(t)
	defer mustClose(t, o)
	for i := 0; i < 64; i++ { // warm the record pool
		if _, err := o.Call("P", i); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := o.Call("P", 1); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state measures 4 allocs/op (was ~26 before the pooled
	// pipeline; see BENCH_baseline.json vs BENCH_PR2.json).
	const limit = 6.0
	if avg > limit {
		t.Errorf("managed execute: %.1f allocs/op, want <= %.0f", avg, limit)
	}
}

func TestAllocsLoopExecute(t *testing.T) {
	// The same echo under a Loop manager: the caller finds the manager
	// parked and runs the selection itself (Mgr.serve). Per call: the
	// params slice, the Accepted and Awaited handles, the results slice.
	o := newLoopEcho(t)
	defer mustClose(t, o)
	for i := 0; i < 64; i++ {
		if _, err := o.Call("P", i); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := o.Call("P", 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Loop+Execute echo: %.1f allocs/op", avg)
	const limit = 4.0
	if avg > limit {
		t.Errorf("Loop execute: %.1f allocs/op, want <= %.0f", avg, limit)
	}
}

func TestAllocsFullProtocol(t *testing.T) {
	// Accept, Start, AwaitCall, Finish: the primitives are one-guard
	// Selects, and switching between the accept and the await guard on one
	// entry keeps the published watch set instead of allocating a new one.
	// Measures 5 allocs per call, as the hand-written primitive loops did;
	// 9 when every switch allocated a watch set.
	o, err := New("X",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Array: 2,
			Body: func(inv *Invocation) error { inv.Return(inv.Param(0)); return nil }}),
		WithManager(func(m *Mgr) {
			for {
				a, err := m.Accept("P")
				if err != nil || m.Start(a) != nil {
					return
				}
				aw, err := m.AwaitCall(a)
				if err != nil || m.Finish(aw) != nil {
					return
				}
			}
		}, Intercept("P")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)
	for i := 0; i < 64; i++ {
		if _, err := o.Call("P", i); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := o.Call("P", 1); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 6.0
	if avg > limit {
		t.Errorf("accept/start/await/finish: %.1f allocs/op, want <= %.0f", avg, limit)
	}
}

func TestAllocsUnmanagedCall(t *testing.T) {
	o, err := New("X",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1,
			Body: func(inv *Invocation) error { inv.Return(inv.Param(0)); return nil }}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)
	for i := 0; i < 64; i++ {
		if _, err := o.Call("P", i); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := o.Call("P", 1); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state measures ~4 allocs/op (was ~9).
	const limit = 7.0
	if avg > limit {
		t.Errorf("unmanaged call: %.1f allocs/op, want <= %.0f", avg, limit)
	}
}

func TestAllocsGuardLoopCombining(t *testing.T) {
	// E1's manager shape: a bounded buffer driven by When guards with
	// request combining, exercising the lazy guard scan.
	const n = 4
	var buf []Value
	nop := func(inv *Invocation) error { return nil }
	o, err := New("B",
		WithEntry(EntrySpec{Name: "Deposit", Params: 1, Body: nop}),
		WithEntry(EntrySpec{Name: "Remove", Results: 1, Body: nop}),
		WithManager(func(m *Mgr) {
			dep := OnAccept("Deposit", func(a *Accepted) {
				buf = append(buf, a.Params[0])
				_ = m.FinishAccepted(a)
			}).When(func(*Accepted) bool { return len(buf) < n })
			rem := OnAccept("Remove", func(a *Accepted) {
				v := buf[0]
				buf = buf[1:]
				_ = m.FinishAccepted(a, v)
			}).When(func(*Accepted) bool { return len(buf) > 0 })
			_ = m.Loop(dep, rem)
		}, InterceptPR("Deposit", 1, 0), InterceptPR("Remove", 0, 1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)
	for i := 0; i < 64; i++ {
		if _, err := o.Call("Deposit", i); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Call("Remove"); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := o.Call("Deposit", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Call("Remove"); err != nil {
			t.Fatal(err)
		}
	})
	// One deposit+remove pair measures ~10 allocs (was ~42 with eager
	// candidate materialization).
	const limit = 16.0
	if avg > limit {
		t.Errorf("guard-loop pair: %.1f allocs/op, want <= %.0f", avg, limit)
	}
}

func TestAllocsDeepScanIsZero(t *testing.T) {
	// The selection kernel over 1024 attached calls — a when and a computed
	// pri on every one, intercepted params re-sliced per call, plus a
	// constant-pri guard over the same index — allocates nothing: no handle,
	// no candidate list growth once the tie set has reached its size.
	const n = 1024
	var avg float64
	scanned := make(chan struct{})
	o, err := New("Deep",
		WithEntry(EntrySpec{Name: "P", Params: 1, Array: n, Body: func(*Invocation) error { return nil }}),
		WithManager(func(m *Mgr) {
			defer close(scanned)
			if !pollUntil(func() bool { return m.Pending("P") == n }) {
				t.Errorf("callers did not all arrive")
				return
			}
			threshold := 0
			guards := []Guard{
				OnAccept("P", func(*Accepted) {}).
					When(func(a *Accepted) bool { return a.Params[0].(int) >= threshold }).
					PriAccept(func(a *Accepted) int { return a.Params[0].(int) % 7 }), // ~n/7 tied at the minimum
				OnAccept("P", func(*Accepted) {}).Pri(0),
			}
			o := m.obj
			scan := func() {
				if err := m.prepare(guards); err != nil {
					t.Errorf("prepare: %v", err)
				}
				o.mu.Lock()
				o.drainIntakeLocked()
				m.scanLocked(guards)
				_ = m.ties.pick(m.rot)
				m.rot++
				o.mu.Unlock()
			}
			scan() // size the tie set
			avg = testing.AllocsPerRun(50, scan)
		}, InterceptPR("P", 1, 0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			_, _ = o.Call("P", v) // ErrClosed: nothing is ever accepted
		}(i)
	}
	<-scanned
	mustClose(t, o)
	wg.Wait()
	if avg != 0 {
		t.Errorf("deep scan: %.1f allocs per selection over %d attached calls, want 0", avg, n)
	}
}
