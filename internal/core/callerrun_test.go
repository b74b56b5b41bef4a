package core

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/sched"
)

// Caller-run bodies: in the default pool mode a started body runs on the
// caller that waits for it (startBodyLocked), and a body that completes
// with the manager parked in Loop finishes its own call (Mgr.serve).

// goid reads the calling goroutine's id from its stack header. Tests only:
// runtime code must not rely on goroutine identity.
func goid() uint64 {
	var buf [32]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// goidBody returns the id of the goroutine that runs it.
func goidBody(inv *Invocation) error {
	inv.Return(goid())
	return nil
}

// callOnCaller calls P from this goroutine and reports whether the body
// ran on it.
func callOnCaller(t *testing.T, o *Object) bool {
	t.Helper()
	res, err := o.Call("P")
	if err != nil {
		t.Fatal(err)
	}
	return res[0] == goid()
}

func TestCallerRunUnmanagedBody(t *testing.T) {
	const n = 50
	o, err := New("X", WithEntry(EntrySpec{Name: "P", Results: 1, Array: 4, Body: goidBody}))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)
	for i := 0; i < n; i++ {
		if !callOnCaller(t, o) {
			t.Fatal("an unmanaged body with a free element ran off its caller's goroutine")
		}
	}
	// What the pool counts once bodies run on their callers: every body as
	// executed, no process created.
	st := o.PoolStats()
	if st.Mode != sched.ModeSpawn || st.ProcessesCreated != 0 || st.MaxResident != 0 || st.TasksExecuted != n {
		t.Errorf("PoolStats = %+v; want spawn mode, 0 created, 0 resident, %d executed", st, n)
	}
}

// TestCallerRunStartedBody: Start on the manager goroutine (a bare Select
// manager, which never lends the role) and Start on a caller holding the
// role (Loop) both post the body to its caller.
func TestCallerRunStartedBody(t *testing.T) {
	managers := map[string]func(m *Mgr){
		"manager goroutine": func(m *Mgr) {
			for {
				a, err := m.Accept("P")
				if err != nil || m.Start(a) != nil {
					return
				}
				aw, err := m.AwaitCall(a)
				if err != nil || m.Finish(aw, aw.Results...) != nil {
					return
				}
			}
		},
		"role holder": func(m *Mgr) {
			_ = m.Loop(
				OnAccept("P", func(a *Accepted) { _ = m.Start(a) }),
				OnAwait("P", func(aw *Awaited) { _ = m.Finish(aw, aw.Results...) }),
			)
		},
	}
	for name, mgr := range managers {
		t.Run(name, func(t *testing.T) {
			o, err := New("X",
				WithEntry(EntrySpec{Name: "P", Results: 1, Array: 2, Body: goidBody}),
				WithManager(mgr, InterceptPR("P", 0, 1)))
			if err != nil {
				t.Fatal(err)
			}
			defer mustClose(t, o)
			for i := 0; i < 20; i++ {
				if !callOnCaller(t, o) {
					t.Fatal("a started body ran off its caller's goroutine")
				}
			}
			if st := o.PoolStats(); st.ProcessesCreated != 0 || st.TasksExecuted != 20 {
				t.Errorf("PoolStats = %+v; want 0 created, 20 executed", st)
			}
		})
	}
}

// TestCallerRunCompletionFinishesOwnCall: a body that completes with the
// manager parked takes the role, and its own await and finish run on its
// caller's goroutine.
func TestCallerRunCompletionFinishesOwnCall(t *testing.T) {
	var awaitOn, bodyOn uint64
	var awaitHeld bool
	o, err := New("X",
		WithEntry(EntrySpec{Name: "P", Array: 2, Body: func(*Invocation) error { bodyOn = goid(); return nil }}),
		WithManager(func(m *Mgr) {
			_ = m.Loop(
				OnAccept("P", func(a *Accepted) { _ = m.Start(a) }),
				OnAwait("P", func(aw *Awaited) {
					awaitOn, awaitHeld = goid(), m.role.Load() == roleHeld
					_ = m.Finish(aw)
				}),
			)
		}, Intercept("P")))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)
	waitParked(t, o)
	if _, err := o.Call("P"); err != nil {
		t.Fatal(err)
	}
	// The call returned, so the manager's writes happened before it.
	if me := goid(); bodyOn != me || awaitOn != me || !awaitHeld {
		t.Errorf("caller %d: body ran on %d, await on %d (role held: %v); want all on the caller holding the role",
			me, bodyOn, awaitOn, awaitHeld)
	}
	waitParked(t, o)
}

// TestCallerRunPooledKeepsWorkers: ModePooled and ModeOneToOne keep their
// workers (E7): the body runs on one of them, never on the caller.
func TestCallerRunPooledKeepsWorkers(t *testing.T) {
	for _, mode := range []sched.Mode{sched.ModePooled, sched.ModeOneToOne} {
		t.Run(mode.String(), func(t *testing.T) {
			o, err := New("X", WithEntry(EntrySpec{Name: "P", Results: 1, Array: 2, Body: goidBody}), WithPool(mode, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer mustClose(t, o)
			for i := 0; i < 20; i++ {
				if callOnCaller(t, o) {
					t.Fatalf("%v: a body ran on its caller's goroutine", mode)
				}
			}
			// A worker counts its task once the body has delivered the
			// outcome, so the last count can trail the last call's return.
			pollUntil(func() bool { return o.PoolStats().TasksExecuted == 20 })
			if st := o.PoolStats(); st.ProcessesCreated != 2 || st.TasksExecuted != 20 {
				t.Errorf("%v: PoolStats = %+v; want 2 created, 20 executed", mode, st)
			}
		})
	}
}

// TestCallerRunCancelledAcceptedCall: a call cancelled after its accept is
// not withdrawn (the manager is alive); the start that follows posts the
// body to the cancelled caller, which runs it and returns its result.
func TestCallerRunCancelledAcceptedCall(t *testing.T) {
	accepted, release := make(chan struct{}), make(chan struct{})
	o, err := New("X",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Body: echoBody}),
		WithManager(func(m *Mgr) {
			a, err := m.Accept("P")
			if err != nil {
				return
			}
			close(accepted)
			<-release
			if m.Start(a) != nil {
				return
			}
			if aw, err := m.AwaitCall(a); err == nil {
				_ = m.Finish(aw, aw.Results...)
			}
			_, _ = m.Accept("P") // park until Close
		}, InterceptPR("P", 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)
	ctx, cancel := context.WithCancel(context.Background())
	done := goCall(ctx, o, "P", 7)
	<-accepted
	cancel()
	close(release)
	if got := recv(t, done, "cancelled accepted call"); got.err != nil || got.res[0] != 7 {
		t.Fatalf("cancelled accepted call = %v, %v; want its result", got.res, got.err)
	}
}
