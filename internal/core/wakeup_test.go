//go:build !race

package core

import (
	"runtime"
	"runtime/metrics"
	"testing"
)

// Wake-up ceilings for a Loop manager: an uncontended managed call runs its
// selection on the caller's goroutine (Mgr.serve), so it wakes nobody.
//
// The count is the runtime's scheduling-latency histogram
// (/sched/latencies:seconds), which records one sample per tracked
// goroutine transition from runnable to running. The runtime tracks one
// transition in 8 (gTrackingPeriod), so wake-ups per call are the count's
// delta × 8 over the calls. It is a sampled count: the ceilings leave
// headroom for that, and for the test framework's own goroutines.

// schedTransitions reads the histogram's total sample count.
func schedTransitions() uint64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// wakeupsPerCall runs call n times from this goroutine, after a warm-up,
// and returns the sampled wake-ups per call.
func wakeupsPerCall(t *testing.T, n int, call func() error) float64 {
	t.Helper()
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("on one processor Loop does not lend the manager role")
	}
	for i := 0; i < 256; i++ {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	before := schedTransitions()
	for i := 0; i < n; i++ {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	return float64(schedTransitions()-before) * 8 / float64(n)
}

// newLoopEcho is the Loop+Execute echo: one entry, executed inline.
func newLoopEcho(t *testing.T) *Object {
	t.Helper()
	o, err := New("X",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1,
			Body: func(inv *Invocation) error { inv.Return(inv.Param(0)); return nil }}),
		WithManager(func(m *Mgr) {
			_ = m.Loop(OnAccept("P", func(a *Accepted) { _, _ = m.Execute(a) }))
		}, Intercept("P")),
	)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// newLoopBuffer is the paper's bounded buffer (§2.4.1), the shape of
// internal/objects/buffer: two guarded accepts whose actions Execute.
func newLoopBuffer(t *testing.T, n int) *Object {
	t.Helper()
	buf := make([]Value, n)
	in, out := 0, 0
	o, err := New("Buffer",
		WithEntry(EntrySpec{Name: "Deposit", Params: 1, Body: func(inv *Invocation) error {
			buf[in] = inv.Param(0)
			in = (in + 1) % n
			return nil
		}}),
		WithEntry(EntrySpec{Name: "Remove", Results: 1, Body: func(inv *Invocation) error {
			v := buf[out]
			buf[out] = nil
			out = (out + 1) % n
			inv.Return(v)
			return nil
		}}),
		WithManager(func(m *Mgr) {
			count := 0
			_ = m.Loop(
				OnAccept("Deposit", func(a *Accepted) {
					if _, err := m.Execute(a); err == nil {
						count++
					}
				}).When(func(*Accepted) bool { return count < n }),
				OnAccept("Remove", func(a *Accepted) {
					if _, err := m.Execute(a); err == nil {
						count--
					}
				}).When(func(*Accepted) bool { return count > 0 }),
			)
		}, Intercept("Deposit"), Intercept("Remove")),
	)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// Before caller-run steps both shapes measured 2.02 wake-ups per call
// (caller → manager, manager → caller); with them both read about 0.004.
const wakeupCeiling = 0.25

func TestWakeupsLoopExecute(t *testing.T) {
	o := newLoopEcho(t)
	defer mustClose(t, o)
	w := wakeupsPerCall(t, 20000, func() error {
		_, err := o.Call("P", 1)
		return err
	})
	t.Logf("Loop+Execute echo: %.3f wake-ups per call", w)
	if w > wakeupCeiling {
		t.Errorf("Loop+Execute echo: %.3f wake-ups per call, want <= %.2f", w, wakeupCeiling)
	}
}

func TestWakeupsLoopBuffer(t *testing.T) {
	o := newLoopBuffer(t, 8)
	defer mustClose(t, o)
	deposit := true
	w := wakeupsPerCall(t, 20000, func() error {
		var err error
		if deposit {
			_, err = o.Call("Deposit", 1)
		} else {
			_, err = o.Call("Remove")
		}
		deposit = !deposit
		return err
	})
	t.Logf("buffer: %.3f wake-ups per call", w)
	if w > wakeupCeiling {
		t.Errorf("buffer: %.3f wake-ups per call, want <= %.2f", w, wakeupCeiling)
	}
}

// The two shapes whose bodies used to run on a pool process of their own:
// 2.9 wake-ups per call for the unmanaged entry (the body's process, then
// the caller) and 4.8 for Start/Await (the body's process, the manager
// goroutine for the await, the caller). A started body now runs on the
// caller that waits for it, and a body that completes with the manager
// parked finishes its own call, so both read under 0.01.

func TestWakeupsUnmanagedArray(t *testing.T) {
	o, err := New("X", WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Array: 8, Body: echoBody}))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)
	w := wakeupsPerCall(t, 20000, func() error {
		_, err := o.Call("P", 1)
		return err
	})
	t.Logf("unmanaged entry, Array 8: %.3f wake-ups per call", w)
	if w > wakeupCeiling {
		t.Errorf("unmanaged entry: %.3f wake-ups per call, want <= %.2f", w, wakeupCeiling)
	}
}

func TestWakeupsLoopStartAwait(t *testing.T) {
	o, err := New("X",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Array: 8, Body: echoBody}),
		WithManager(func(m *Mgr) {
			_ = m.Loop(
				OnAccept("P", func(a *Accepted) { _ = m.Start(a) }),
				OnAwait("P", func(aw *Awaited) { _ = m.Finish(aw) }),
			)
		}, Intercept("P")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)
	w := wakeupsPerCall(t, 20000, func() error {
		_, err := o.Call("P", 1)
		return err
	})
	t.Logf("Loop(Start, Await), Array 8: %.3f wake-ups per call", w)
	// A body that runs concurrently with its caller needs one wake-up; this
	// sequential caller needs none.
	if w > 1 {
		t.Errorf("Loop(Start, Await): %.3f wake-ups per call, want <= 1", w)
	}
}
