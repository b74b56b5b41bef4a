package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// crashableEcho builds an object whose manager executes calls one at a time
// and panics when the parameter equals "boom". onlyOnce makes each distinct
// poison pill lethal a single time, so a Restart policy can make progress
// after requeueing it.
func crashableEcho(t *testing.T, opts ObjectOptions, onlyOnce bool) *Object {
	t.Helper()
	var seen sync.Map
	o, err := New("Crashable",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Array: 4, Body: func(inv *Invocation) error {
			inv.Return(inv.Param(0))
			return nil
		}}),
		WithManager(func(m *Mgr) {
			for {
				a, err := m.Accept("P")
				if err != nil {
					return
				}
				if p, ok := a.Params[0].(string); ok && strings.HasPrefix(p, "boom") {
					if !onlyOnce {
						panic("manager hit a poison pill")
					}
					if _, dup := seen.LoadOrStore(p, true); !dup {
						panic("manager hit a poison pill")
					}
				}
				if _, err := m.Execute(a); err != nil {
					return
				}
			}
		}, InterceptPR("P", 1, 0)),
		WithObjectOptions(opts),
	)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// waitLeaks waits for stray goroutines to settle back to the baseline.
func waitLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d, baseline %d — leak", runtime.NumGoroutine(), before)
}

func TestFailFastPoisonsObject(t *testing.T) {
	before := runtime.NumGoroutine()
	sup := &metrics.Supervision{}
	rec := trace.NewRecorder(0)
	// A manager that accepts a few calls (parking them accepted, unstarted)
	// and then panics, leaving in-flight callers at every pre-start stage.
	o, err := New("FailFast",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Array: 2, Body: func(inv *Invocation) error {
			inv.Return(inv.Param(0))
			return nil
		}}),
		WithManager(func(m *Mgr) {
			// Accept one call and never start it; panic on the second.
			if _, err := m.Accept("P"); err != nil {
				return
			}
			if _, err := m.Accept("P"); err != nil {
				return
			}
			panic("manager bug")
		}, Intercept("P")),
		WithObjectOptions(ObjectOptions{Metrics: sup}),
		WithTrace(rec),
	)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 6
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			_, err := o.Call("P", i)
			errs <- err
		}(i)
	}

	// Every in-flight caller — accepted, attached or still waiting — must
	// resolve with ErrObjectPoisoned promptly once the manager dies.
	deadline := time.After(2 * time.Second)
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrObjectPoisoned) {
				t.Fatalf("in-flight call err = %v, want ErrObjectPoisoned", err)
			}
		case <-deadline:
			t.Fatalf("call %d still hanging after manager death", i)
		}
	}

	// Subsequent calls fail fast too — well within the 100ms budget.
	start := time.Now()
	if _, err := o.Call("P", 99); !errors.Is(err, ErrObjectPoisoned) {
		t.Fatalf("post-poison call err = %v, want ErrObjectPoisoned", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("post-poison call took %v, want < 100ms", d)
	}
	if !o.Poisoned() {
		t.Fatal("Poisoned() = false after manager panic")
	}
	if got := sup.Poisons.Value(); got != 1 {
		t.Fatalf("Poisons = %d, want 1", got)
	}
	if err := o.ManagerErr(); err == nil || !strings.Contains(err.Error(), "manager bug") {
		t.Fatalf("ManagerErr = %v", err)
	}
	if n := rec.Count("", trace.Poisoned); n != 1 {
		t.Fatalf("Poisoned trace events = %d, want 1", n)
	}
	mustClose(t, o)
	waitLeaks(t, before)
}

func TestRestartPolicyRecovers(t *testing.T) {
	sup := &metrics.Supervision{}
	rec := trace.NewRecorder(0)
	o, err := New("Recovering",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Array: 4, Body: func(inv *Invocation) error {
			inv.Return(inv.Param(0))
			return nil
		}}),
		WithManager(func(m *Mgr) {
			for {
				a, err := m.Accept("P")
				if err != nil {
					return
				}
				if a.Params[0] == "boom" {
					panic("pill")
				}
				if _, err := m.Execute(a); err != nil {
					return
				}
			}
		}, InterceptPR("P", 1, 0)),
		WithObjectOptions(ObjectOptions{
			ManagerPolicy: Restart,
			Restart:       RestartPolicy{Max: 3},
			Metrics:       sup,
		}),
		WithTrace(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)

	if res, err := o.Call("P", "ok"); err != nil || res[0] != "ok" {
		t.Fatalf("pre-crash call = %v, %v", res, err)
	}
	// The pill kills the manager once: it is accepted, the manager panics,
	// and the restarted incarnation re-accepts the requeued call. The pill
	// only panics when freshly accepted from "boom" params, so on requeue
	// the new incarnation panics again... — use a ctx-bounded caller and a
	// one-shot pill instead.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, err := o.CallCtx(ctx, "P", "boom")
		done <- err
	}()
	// The manager keeps panicking on the requeued pill until the budget
	// would exhaust — but each restart is counted; wait for at least one.
	deadline := time.Now().Add(2 * time.Second)
	for sup.Restarts.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sup.Restarts.Value() == 0 {
		t.Fatal("no restart recorded")
	}
	<-done

	if o.Poisoned() {
		// Budget exhausted because the pill re-panics every incarnation —
		// acceptable for this half of the test; recovery with a one-shot
		// pill is covered by TestRestartRecoversWithOneShotPill.
		return
	}
	// Manager alive again: the object serves new calls.
	if res, err := o.Call("P", "after"); err != nil || res[0] != "after" {
		t.Fatalf("post-restart call = %v, %v", res, err)
	}
}

func TestRestartRecoversWithOneShotPill(t *testing.T) {
	sup := &metrics.Supervision{}
	o := crashableEcho(t, ObjectOptions{
		ManagerPolicy: Restart,
		Restart:       RestartPolicy{Max: 5},
		Metrics:       sup,
	}, true)
	defer mustClose(t, o)

	// The pill panics the manager exactly once; after the restart the
	// requeued call is re-accepted and executes normally.
	res, err := o.Call("P", "boom-1")
	if err != nil || res[0] != "boom-1" {
		t.Fatalf("pill call = %v, %v", res, err)
	}
	if got := sup.Restarts.Value(); got != 1 {
		t.Fatalf("Restarts = %d, want 1", got)
	}
	if st := o.SupervisionStats(); st.Restarts != 1 || st.Poisoned {
		t.Fatalf("SupervisionStats = %+v", st)
	}
	// And the object still serves ordinary traffic.
	if res, err := o.Call("P", "ok"); err != nil || res[0] != "ok" {
		t.Fatalf("post-restart call = %v, %v", res, err)
	}
}

func TestRestartBudgetExhaustionPoisons(t *testing.T) {
	sup := &metrics.Supervision{}
	o := crashableEcho(t, ObjectOptions{
		ManagerPolicy: Restart,
		Restart:       RestartPolicy{Max: 2},
		Metrics:       sup,
	}, false) // pill is always lethal: requeue → re-accept → re-panic
	defer mustClose(t, o)

	_, err := o.Call("P", "boom")
	if !errors.Is(err, ErrObjectPoisoned) {
		t.Fatalf("call err = %v, want ErrObjectPoisoned", err)
	}
	if got := sup.Restarts.Value(); got != 2 {
		t.Fatalf("Restarts = %d, want 2 (budget)", got)
	}
	if got := sup.Poisons.Value(); got != 1 {
		t.Fatalf("Poisons = %d, want 1", got)
	}
	if !o.Poisoned() {
		t.Fatal("object not poisoned after budget exhaustion")
	}
}

func TestRestartWithoutManagerRejected(t *testing.T) {
	_, err := New("NoMgr",
		WithEntry(EntrySpec{Name: "P", Body: func(inv *Invocation) error { return nil }}),
		WithObjectOptions(ObjectOptions{ManagerPolicy: Restart}),
	)
	if !errors.Is(err, ErrNoManager) {
		t.Fatalf("New err = %v, want ErrNoManager", err)
	}
}

// stalledObject builds an object whose manager accepts nothing: every call
// stays pending forever (a guard set that can never fire).
func stalledObject(t *testing.T, opts ObjectOptions) *Object {
	t.Helper()
	o, err := New("Stalled",
		WithEntry(EntrySpec{Name: "P", Results: 1, Array: 2, Body: func(inv *Invocation) error {
			inv.Return(1)
			return nil
		}}),
		WithEntry(EntrySpec{Name: "Q", Results: 1, Array: 2, Body: func(inv *Invocation) error {
			inv.Return(2)
			return nil
		}}),
		WithManager(func(m *Mgr) {
			// Accept only Q; P's calls can never progress.
			for {
				a, err := m.Accept("Q")
				if err != nil {
					return
				}
				if _, err := m.Execute(a); err != nil {
					return
				}
			}
		}, Intercept("P"), Intercept("Q")),
		WithObjectOptions(opts),
	)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestAdmissionRejectNewest(t *testing.T) {
	sup := &metrics.Supervision{}
	rec := trace.NewRecorder(0)
	o, err := New("Bounded",
		WithEntry(EntrySpec{Name: "P", Results: 1, Array: 2, MaxPending: 2, Shed: ShedRejectNewest,
			Body: func(inv *Invocation) error { inv.Return(1); return nil }}),
		WithManager(func(m *Mgr) {
			<-m.Closed() // never accept: pending stays where the callers put it
		}, Intercept("P")),
		WithObjectOptions(ObjectOptions{Metrics: sup}),
		WithTrace(rec),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the bound with two async callers, then overflow it.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = o.Call("P")
		}()
	}
	waitFor(t, func() bool {
		st, _ := o.EntryStats("P")
		return st.Pending == 2
	})
	_, err = o.Call("P")
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("overflow call err = %v, want ErrOverload", err)
	}
	if st, _ := o.EntryStats("P"); st.Shed != 1 {
		t.Fatalf("EntryStats.Shed = %d, want 1", st.Shed)
	}
	if got := sup.Sheds.Value(); got != 1 {
		t.Fatalf("Supervision.Sheds = %d, want 1", got)
	}
	if n := rec.Count("P", trace.Shed); n != 1 {
		t.Fatalf("Shed trace events = %d, want 1", n)
	}
	mustClose(t, o)
	wg.Wait()
}

func TestAdmissionRejectOldest(t *testing.T) {
	o, err := New("Freshest",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Array: 2, MaxPending: 1, Shed: ShedRejectOldest,
			Body: func(inv *Invocation) error { inv.Return(inv.Param(0)); return nil }}),
		WithManager(func(m *Mgr) {
			<-m.Closed()
		}, Intercept("P")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)

	oldErr := make(chan error, 1)
	go func() {
		_, err := o.Call("P", "old")
		oldErr <- err
	}()
	waitFor(t, func() bool {
		st, _ := o.EntryStats("P")
		return st.Pending == 1
	})

	// The newcomer evicts the oldest pending call and takes its place.
	newDone := make(chan error, 1)
	go func() {
		_, err := o.Call("P", "new")
		newDone <- err
	}()
	if err := <-oldErr; !errors.Is(err, ErrOverload) {
		t.Fatalf("evicted call err = %v, want ErrOverload", err)
	}
	waitFor(t, func() bool {
		st, _ := o.EntryStats("P")
		return st.Pending == 1
	})
	mustClose(t, o)
	if err := <-newDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("admitted call err = %v, want ErrClosed at close", err)
	}
}

func TestAdmissionBlockAdmitsWhenSpaceFrees(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	o, err := New("Blocking",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Array: 1, MaxPending: 1,
			Body: func(inv *Invocation) error { inv.Return(inv.Param(0)); return nil }}),
		WithManager(func(m *Mgr) {
			<-started
			<-release
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
	defer mustClose(t, o)
	close(started)

	first := make(chan error, 1)
	go func() {
		_, err := o.Call("P", 1)
		first <- err
	}()
	waitFor(t, func() bool {
		st, _ := o.EntryStats("P")
		return st.Pending == 1
	})

	// Second caller blocks in admission (ShedBlock) until the manager
	// accepts the first.
	second := make(chan error, 1)
	go func() {
		_, err := o.Call("P", 2)
		second <- err
	}()
	select {
	case err := <-second:
		t.Fatalf("second call returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first call: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second call: %v", err)
	}
}

func TestAdmissionBlockHonoursContext(t *testing.T) {
	o, err := New("BlockedForever",
		WithEntry(EntrySpec{Name: "P", Results: 1, Array: 1, MaxPending: 1,
			Body: func(inv *Invocation) error { inv.Return(1); return nil }}),
		WithManager(func(m *Mgr) {
			<-m.Closed()
		}, Intercept("P")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)

	hold := make(chan error, 1)
	go func() {
		_, err := o.Call("P")
		hold <- err
	}()
	waitFor(t, func() bool {
		st, _ := o.EntryStats("P")
		return st.Pending == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := o.CallCtx(ctx, "P"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked admission err = %v, want DeadlineExceeded", err)
	}
	mustClose(t, o)
	if err := <-hold; !errors.Is(err, ErrClosed) {
		t.Fatalf("held call err = %v", err)
	}
}

func TestDefaultCallTimeout(t *testing.T) {
	o := stalledObject(t, ObjectOptions{DefaultCallTimeout: 30 * time.Millisecond})
	defer mustClose(t, o)

	start := time.Now()
	_, err := o.Call("P") // P is never accepted
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("deadline took %v", d)
	}
	// A caller-supplied deadline wins over the default.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := o.CallCtx(ctx, "P"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctx call err = %v", err)
	}
	if d := time.Since(start); d > 25*time.Millisecond {
		t.Fatalf("caller deadline not honoured: %v", d)
	}
}

func TestInvocationCtxCancelledOnPoison(t *testing.T) {
	bodyBlocked := make(chan struct{})
	bodyErr := make(chan error, 1)
	o, err := New("LongBody",
		WithEntry(EntrySpec{Name: "P", Results: 1, Array: 1, Body: func(inv *Invocation) error {
			close(bodyBlocked)
			<-inv.Ctx().Done() // stops on poison, not only on close
			bodyErr <- inv.Ctx().Err()
			inv.Return(1)
			return nil
		}}),
		WithEntry(EntrySpec{Name: "Kill", Body: func(inv *Invocation) error { return nil }}),
		WithManager(func(m *Mgr) {
			a, err := m.Accept("P")
			if err != nil {
				return
			}
			if err := m.Start(a); err != nil {
				return
			}
			if _, err := m.Accept("Kill"); err != nil {
				return
			}
			panic("killed")
		}, Intercept("P"), Intercept("Kill")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)

	pDone := make(chan error, 1)
	go func() {
		_, err := o.Call("P")
		pDone <- err
	}()
	<-bodyBlocked
	go o.Call("Kill") //nolint:errcheck // poison error checked via pDone

	select {
	case err := <-bodyErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("body ctx err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("body not cancelled on poison")
	}
	if err := <-pDone; !errors.Is(err, ErrObjectPoisoned) {
		t.Fatalf("P caller err = %v, want ErrObjectPoisoned", err)
	}
}

// TestWithdrawAcceptedAfterManagerDeath is the regression test for the
// accepted-but-unstarted hang: a caller whose call was accepted by a
// manager that then returned (without poisoning) must be able to cancel.
func TestWithdrawAcceptedAfterManagerDeath(t *testing.T) {
	accepted := make(chan struct{})
	o, err := New("Abandoner",
		WithEntry(EntrySpec{Name: "P", Results: 1, Array: 1, Body: func(inv *Invocation) error {
			inv.Return(1)
			return nil
		}}),
		WithManager(func(m *Mgr) {
			if _, err := m.Accept("P"); err != nil {
				return
			}
			close(accepted)
			// Manager returns with the call accepted but never started.
		}, Intercept("P")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := o.CallCtx(ctx, "P")
		done <- err
	}()
	<-accepted
	// Give the manager goroutine time to exit and be marked gone.
	waitFor(t, func() bool {
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.mgrGone
	})
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("caller hung in awaitResult past cancellation (regression)")
	}
}

func TestWatchdogDetectsStall(t *testing.T) {
	sup := &metrics.Supervision{}
	rec := trace.NewRecorder(0)
	var stalls atomic.Int32
	var info atomic.Value
	o := func() *Object {
		o, err := New("Stuck",
			WithEntry(EntrySpec{Name: "P", Results: 1, Array: 2, Body: func(inv *Invocation) error {
				inv.Return(1)
				return nil
			}}),
			WithManager(func(m *Mgr) {
				<-m.Closed() // stuck: accepts nothing, forever
			}, Intercept("P")),
			WithObjectOptions(ObjectOptions{
				Metrics: sup,
				Watchdog: WatchdogConfig{
					Threshold: 20 * time.Millisecond,
					Interval:  5 * time.Millisecond,
					OnStall: func(si StallInfo) {
						info.Store(si) // before the count the test waits on
						stalls.Add(1)
					},
				},
			}),
			WithTrace(rec),
		)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}()
	defer mustClose(t, o)

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = o.Call("P")
	}()
	waitFor(t, func() bool { return stalls.Load() >= 1 })
	si := info.Load().(StallInfo)
	if si.Object != "Stuck" || si.Entry != "P" || si.Age < 20*time.Millisecond || si.Pending != 1 {
		t.Fatalf("StallInfo = %+v", si)
	}
	if sup.Stalls.Value() == 0 {
		t.Fatal("Supervision.Stalls not incremented")
	}
	if rec.Count("P", trace.Stalled) == 0 {
		t.Fatal("no Stalled trace event")
	}
	// One distinct oldest call fires once, not once per tick.
	n := stalls.Load()
	time.Sleep(60 * time.Millisecond)
	if got := stalls.Load(); got != n {
		t.Fatalf("watchdog re-fired for the same call: %d -> %d", n, got)
	}
	mustClose(t, o)
	<-done
}

// TestWatchdogIdleManagerNoFalsePositive: a manager legitimately blocked in
// accept on an EMPTY queue must not trip the watchdog — the signal is
// oldest-pending-call age, not manager idle time.
func TestWatchdogIdleManagerNoFalsePositive(t *testing.T) {
	var stalls atomic.Int32
	o, err := New("Idle",
		WithEntry(EntrySpec{Name: "P", Results: 1, Array: 2, Body: func(inv *Invocation) error {
			inv.Return(1)
			return nil
		}}),
		WithManager(func(m *Mgr) {
			for {
				a, err := m.Accept("P") // blocks idle on the empty queue
				if err != nil {
					return
				}
				if _, err := m.Execute(a); err != nil {
					return
				}
			}
		}, Intercept("P")),
		WithObjectOptions(ObjectOptions{
			Watchdog: WatchdogConfig{
				Threshold: 10 * time.Millisecond,
				Interval:  2 * time.Millisecond,
				OnStall:   func(StallInfo) { stalls.Add(1) },
			},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)

	// Idle far past the threshold, sprinkling in calls that are served
	// promptly: pending age never accumulates, so no stall may fire.
	for i := 0; i < 5; i++ {
		if _, err := o.Call("P"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(15 * time.Millisecond)
	}
	if got := stalls.Load(); got != 0 {
		t.Fatalf("watchdog fired %d times on an idle-but-live manager", got)
	}
}

// waitFor polls cond until true or the test deadline budget expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
