package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// Edge cases of the manager role: a caller that finds the manager parked in
// Loop runs the selection on its own goroutine (Mgr.serve). Each test pins
// what the caller-run path must keep identical to the manager goroutine's.

// waitParked waits until o's manager is parked in Loop with the role free.
func waitParked(t *testing.T, o *Object) {
	t.Helper()
	if o.oneProc {
		t.Skip("on one processor Loop does not lend the manager role")
	}
	if !pollUntil(func() bool { m := o.mgr.Load(); return m != nil && m.role.Load() == roleParked }) {
		t.Fatal("manager never parked in Loop")
	}
}

// holding reports whether the process running the manager right now is a
// caller holding the role.
func holding(o *Object) bool { m := o.mgr.Load(); return m != nil && m.role.Load() == roleHeld }

// recv waits for one value from ch, failing the test after 5s.
func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: timed out", what)
		panic("unreachable")
	}
}

type callOutcome struct {
	res []Value
	err error
}

func goCall(ctx context.Context, o *Object, entry string, params ...Value) <-chan callOutcome {
	ch := make(chan callOutcome, 1)
	go func() {
		res, err := o.CallCtx(ctx, entry, params...)
		ch <- callOutcome{res, err}
	}()
	return ch
}

// crashRun runs one "boom" call and one ordinary call against a Loop
// manager whose action panics on the pill once a second call is pending,
// and reports everything supervision exposes. onMgr makes the manager
// goroutine run the pill's action: it enters Loop only once the call is
// pending, so the caller finds the role busy. Otherwise the manager is
// parked first and the pill's caller runs the action.
func crashRun(t *testing.T, policy ManagerPolicy, onMgr bool) string {
	t.Helper()
	var seen atomic.Bool
	var onCaller atomic.Bool
	accepted := make(chan struct{}, 1)
	o, err := New("Crash",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Body: echoBody}),
		WithManager(func(m *Mgr) {
			if onMgr && !pollUntil(func() bool { return m.Pending("P") > 0 }) {
				return
			}
			_ = m.Loop(OnAccept("P", func(a *Accepted) {
				// The pill is lethal once, so a restarted manager serves it.
				if a.Params[0] == "boom" && seen.CompareAndSwap(false, true) {
					onCaller.Store(m.role.Load() == roleHeld)
					accepted <- struct{}{}
					pollUntil(func() bool { return m.Pending("P") > 0 })
					panic("pill")
				}
				_, _ = m.Execute(a)
			}))
		}, InterceptPR("P", 1, 0)),
		WithObjectOptions(ObjectOptions{ManagerPolicy: policy, Restart: RestartPolicy{Max: 3}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)
	if !onMgr {
		waitParked(t, o)
	}
	pill := goCall(context.Background(), o, "P", "boom")
	recv(t, accepted, "pill accepted")
	other := goCall(context.Background(), o, "P", "ok")
	p, q := recv(t, pill, "pill call"), recv(t, other, "second call")
	if got := onCaller.Load(); got == onMgr {
		t.Fatalf("onMgr=%v: pill's action ran on a caller = %v", onMgr, got)
	}
	st := o.SupervisionStats()
	return fmt.Sprintf("pill=%v %v other=%v %v ManagerErr=%v restarts=%d poisoned=%v",
		p.res, p.err, q.res, q.err, o.ManagerErr(), st.Restarts, st.Poisoned)
}

func TestRolePanicOnCallerMatchesManager(t *testing.T) {
	want := map[ManagerPolicy]string{
		FailFast: "pill=[] alps: object Crash poisoned: alps: manager of Crash panicked: pill: alps: object poisoned " +
			"other=[] alps: object Crash poisoned: alps: manager of Crash panicked: pill: alps: object poisoned " +
			"ManagerErr=alps: manager of Crash panicked: pill restarts=0 poisoned=true",
		Restart: "pill=[boom] <nil> other=[ok] <nil> ManagerErr=alps: manager of Crash panicked: pill restarts=1 poisoned=false",
	}
	for _, policy := range []ManagerPolicy{FailFast, Restart} {
		onMgr := crashRun(t, policy, true)
		onCaller := crashRun(t, policy, false)
		if onMgr != onCaller {
			t.Errorf("%v: panic on the manager goroutine gives\n  %s\non a caller's goroutine\n  %s", policy, onMgr, onCaller)
		}
		if onCaller != want[policy] {
			t.Errorf("%v: got\n  %s\nwant\n  %s", policy, onCaller, want[policy])
		}
	}
}

func TestRoleCloseWhileHeld(t *testing.T) {
	var o *Object
	gate := make(chan struct{})
	inBody := make(chan bool, 1)
	loopErr := make(chan error, 1)
	o, err := New("Closing",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Body: func(inv *Invocation) error {
			if inv.Param(0) == "hold" {
				inBody <- holding(o)
				<-gate
			}
			inv.Return(inv.Param(0))
			return nil
		}}),
		WithManager(func(m *Mgr) {
			loopErr <- m.Loop(OnAccept("P", func(a *Accepted) { _, _ = m.Execute(a) }))
		}, InterceptPR("P", 1, 0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	waitParked(t, o)
	held := goCall(context.Background(), o, "P", "hold")
	if !recv(t, inBody, "holder in body") {
		t.Fatal("the first call's body did not run on a role-holding caller")
	}
	pending := goCall(context.Background(), o, "P", "pending")
	waitFor(t, func() bool { st, _ := o.EntryStats("P"); return st.Pending == 1 })

	closed := make(chan error, 1)
	go func() { closed <- o.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a caller held the role mid-action")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := recv(t, closed, "Close"); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// As on the manager goroutine: the running call completes into
	// ErrClosed, the pending one fails with it, and Loop reports it.
	if got := recv(t, held, "holder's call"); !errors.Is(got.err, ErrClosed) {
		t.Errorf("holder's call = %v, %v; want ErrClosed", got.res, got.err)
	}
	if got := recv(t, pending, "pending call"); !errors.Is(got.err, ErrClosed) {
		t.Errorf("pending call = %v, %v; want ErrClosed", got.res, got.err)
	}
	if err := recv(t, loopErr, "Loop"); !errors.Is(err, ErrClosed) {
		t.Errorf("Loop returned %v, want ErrClosed", err)
	}
	if _, err := o.Call("P", "late"); !errors.Is(err, ErrClosed) {
		t.Errorf("call after Close = %v, want ErrClosed", err)
	}
}

func TestRoleBlockingActionMakesProgress(t *testing.T) {
	// The A action blocks twice as the manager: in Accept until a B call
	// arrives (a caller's poke), and in AwaitCall until A's body completes
	// (a body's poke). A's body was posted to A's caller, the holder
	// itself, so the holder hands it to a pool process before it blocks:
	// the one process the object's pool creates. Both pokes must reach the
	// holder, not the manager goroutine parked in Loop.
	var onCaller atomic.Bool
	var o *Object
	o, err := New("Blocking",
		WithEntry(EntrySpec{Name: "A", Params: 1, Results: 1, Body: echoBody}),
		WithEntry(EntrySpec{Name: "B", Params: 1, Results: 1, Body: echoBody}),
		WithManager(func(m *Mgr) {
			_ = m.Loop(OnAccept("A", func(a *Accepted) {
				onCaller.Store(m.role.Load() == roleHeld)
				b, err := m.Accept("B")
				if err != nil {
					return
				}
				if _, err := m.Execute(b); err != nil {
					return
				}
				if err := m.Start(a); err != nil {
					return
				}
				aw, err := m.AwaitCall(a)
				if err != nil {
					return
				}
				_ = m.Finish(aw, aw.Results...)
			}))
		}, InterceptPR("A", 1, 1), InterceptPR("B", 1, 0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)
	waitParked(t, o)
	a := goCall(context.Background(), o, "A", 1)
	// The holder is blocked in Accept once it has published idle.
	waitFor(t, func() bool { m := o.mgr.Load(); return holding(o) && m.idle.Load() != 0 })
	if b := recv(t, goCall(context.Background(), o, "B", 2), "B"); b.err != nil || b.res[0] != 2 {
		t.Fatalf("B = %v, %v", b.res, b.err)
	}
	if got := recv(t, a, "A"); got.err != nil || got.res[0] != 1 {
		t.Fatalf("A = %v, %v", got.res, got.err)
	}
	if !onCaller.Load() {
		t.Fatal("A's action did not run on a role-holding caller")
	}
	waitFor(t, func() bool { return o.PoolStats().TasksExecuted == 1 })
	if st := o.PoolStats(); st.ProcessesCreated != 1 || st.MaxResident != 1 {
		t.Fatalf("pool created %d processes (max resident %d), want the one A's body was handed to",
			st.ProcessesCreated, st.MaxResident)
	}
	waitParked(t, o)
}

func TestRoleBareSelectNeverLends(t *testing.T) {
	var lent atomic.Int64
	o, err := New("Bare",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Body: echoBody}),
		WithManager(func(m *Mgr) {
			g := OnAccept("P", func(a *Accepted) {
				if m.role.Load() != roleMgr {
					lent.Add(1)
				}
				_, _ = m.Execute(a)
			})
			for {
				if _, err := m.Select(g); err != nil {
					return
				}
			}
		}, InterceptPR("P", 1, 0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)
	for i := 0; i < 200; i++ {
		if res, err := o.Call("P", i); err != nil || res[0] != i {
			t.Fatalf("call %d = %v, %v", i, res, err)
		}
		if r := o.mgr.Load().role.Load(); r != roleMgr {
			t.Fatalf("after call %d the role is %d, want roleMgr", i, r)
		}
	}
	if n := lent.Load(); n != 0 {
		t.Fatalf("%d actions ran off the manager goroutine", n)
	}
}

func TestRoleHolderCtxExpiresMidStep(t *testing.T) {
	// The holder's deadline passes while its step runs its own call's body.
	// The accepted call runs to completion and returns its results; the
	// holder then runs the one further selection it may (the Fast call
	// that arrived meanwhile) and gives the role back parked.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var o *Object
	inSlow := make(chan struct{}, 1)
	var fastOnCaller atomic.Bool
	o, err := New("Deadline",
		WithEntry(EntrySpec{Name: "Slow", Params: 1, Results: 1, Body: func(inv *Invocation) error {
			inSlow <- struct{}{}
			<-ctx.Done()
			pollUntil(func() bool { st, _ := o.EntryStats("Fast"); return st.Pending == 1 })
			inv.Return(inv.Param(0))
			return nil
		}}),
		WithEntry(EntrySpec{Name: "Fast", Params: 1, Results: 1, Body: func(inv *Invocation) error {
			fastOnCaller.Store(holding(o))
			inv.Return(inv.Param(0))
			return nil
		}}),
		WithManager(func(m *Mgr) {
			exec := func(a *Accepted) { _, _ = m.Execute(a) }
			_ = m.Loop(OnAccept("Slow", exec), OnAccept("Fast", exec))
		}, InterceptPR("Slow", 1, 0), InterceptPR("Fast", 1, 0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)
	waitParked(t, o)
	slow := goCall(ctx, o, "Slow", "s")
	recv(t, inSlow, "Slow body")
	if !holding(o) {
		t.Fatal("Slow's body is not running on a role-holding caller")
	}
	fast := goCall(context.Background(), o, "Fast", "f")
	if got := recv(t, slow, "Slow"); got.err != nil || got.res[0] != "s" {
		t.Fatalf("Slow = %v, %v; an accepted call runs to completion", got.res, got.err)
	}
	if ctx.Err() == nil {
		t.Fatal("the deadline did not pass mid-step")
	}
	if got := recv(t, fast, "Fast"); got.err != nil || got.res[0] != "f" {
		t.Fatalf("Fast = %v, %v", got.res, got.err)
	}
	if !fastOnCaller.Load() {
		t.Fatal("Fast was not served by the holder's one further selection")
	}
	waitParked(t, o)
	if res, err := o.Call("Fast", "next"); err != nil || res[0] != "next" {
		t.Fatalf("next call = %v, %v", res, err)
	}
}
