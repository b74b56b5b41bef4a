package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/trace"
)

// The standalone primitives are one-guard Selects (docs/SEMANTICS.md §1):
// Accept is Select(OnAccept(P, ...)), AcceptSlot adds .Slot(i), Await is
// Select(OnAwait(P, ...)), and AwaitCall is the await guard on the call's
// element plus a check that the awaited call is the one named. These tests
// hold each primitive to that equation: the same seeded manager program,
// run once with the primitive and once with its hand-written Select, must
// leave the same trace, the same manager and body sequencer points and the
// same caller results.

// seqLog records the sequencer points of the manager and of the bodies.
// The callers' submit and await-result points are left out: they run on
// the callers' goroutines, whose interleaving with the manager the program
// does not fix.
type seqLog struct {
	mu  sync.Mutex
	pts []string
}

func (l *seqLog) Point(p SeqPoint, _, entry string, callID uint64) {
	if p == SeqSubmit || p == SeqAwaitResult {
		return
	}
	l.mu.Lock()
	l.pts = append(l.pts, fmt.Sprintf("%v %s #%d", p, entry, callID))
	l.mu.Unlock()
}

// primOps runs the four primitives, except the one named by asSelect,
// which it runs as its hand-written one-guard Select.
type primOps struct{ asSelect string }

func (p primOps) accept(m *Mgr, entry string) (*Accepted, error) {
	if p.asSelect != "Accept" {
		return m.Accept(entry)
	}
	var got *Accepted
	_, err := m.Select(OnAccept(entry, func(a *Accepted) { got = a }))
	return got, err
}

func (p primOps) acceptSlot(m *Mgr, entry string, i int) (*Accepted, error) {
	if p.asSelect != "AcceptSlot" {
		return m.AcceptSlot(entry, i)
	}
	var got *Accepted
	_, err := m.Select(OnAccept(entry, func(a *Accepted) { got = a }).Slot(i))
	return got, err
}

func (p primOps) await(m *Mgr, entry string) (*Awaited, error) {
	if p.asSelect != "Await" {
		return m.Await(entry)
	}
	var got *Awaited
	_, err := m.Select(OnAwait(entry, func(aw *Awaited) { got = aw }))
	return got, err
}

func (p primOps) awaitCall(m *Mgr, a *Accepted) (*Awaited, error) {
	if p.asSelect != "AwaitCall" {
		return m.AwaitCall(a)
	}
	var got *Awaited
	if _, err := m.Select(OnAwait(a.Entry, func(aw *Awaited) { got = aw }).Slot(a.Slot)); err != nil {
		return nil, err
	}
	if got.CallID() != a.CallID() {
		return nil, ErrBadState
	}
	return got, nil
}

// slotsIn lists, in element order, the elements of the named entry that
// are in state want.
func slotsIn(o *Object, entry string, want slotState) []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.drainIntakeLocked()
	var out []int
	for _, s := range o.entries[entry].slots {
		if s.state == want {
			out = append(out, s.index)
		}
	}
	return out
}

// oneGuardRun is what one run of the seeded program leaves behind.
type oneGuardRun struct {
	events  []string
	points  []string
	results []string
}

// runOneGuardProgram runs a seeded manager program over a 3-element entry
// P(x) -> 2x that intercepts its parameter and its result. The manager
// submits the calls one at a time (each waits until it is pending), and it
// waits for every started body to become ready before its next operation,
// so the program alone fixes the schedule. Each step picks, by the seed,
// one of the operations that cannot block for ever: submit the next call,
// accept (any element or one attached element), start, await (any or one
// started call), finish with 1000 added to the result, or execute.
func runOneGuardProgram(t *testing.T, seed int64, ops primOps) oneGuardRun {
	t.Helper()
	const calls = 9
	rec := trace.NewRecorder(0)
	log := &seqLog{}
	results := make([]string, calls)
	var callers sync.WaitGroup
	var progErr error
	progDone := make(chan struct{})
	body := func(inv *Invocation) error {
		inv.Return(2 * inv.Param(0).(int))
		return nil
	}
	o, err := New("X",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Array: 3, Body: body}),
		WithTrace(rec),
		WithObjectOptions(ObjectOptions{Sequencer: log}),
		WithManager(func(m *Mgr) {
			progErr = func() error {
				rng := rand.New(rand.NewSource(seed))
				o := m.Object()
				var accepted, started []*Accepted
				var awaited []*Awaited
				submitted, done := 0, 0
				for step := 0; done < calls; step++ {
					if step > 10000 {
						return errors.New("program made no progress")
					}
					attached := slotsIn(o, "P", slotAttached)
					var can []string
					if submitted < calls {
						can = append(can, "submit")
					}
					if len(attached) > 0 {
						can = append(can, "accept", "acceptSlot")
					}
					if len(accepted) > 0 {
						can = append(can, "start", "execute")
					}
					if len(started) > 0 {
						can = append(can, "await", "awaitCall")
					}
					if len(awaited) > 0 {
						can = append(can, "finish")
					}
					var err error
					pick := rng.Intn(len(can))
					switch can[pick] {
					case "submit":
						i, v, before := submitted, rng.Intn(100), m.Pending("P")
						submitted++
						callers.Add(1)
						go func() {
							defer callers.Done()
							res, err := o.Call("P", v)
							results[i] = fmt.Sprint(res, err)
						}()
						if !pollUntil(func() bool { return m.Pending("P") == before+1 }) {
							return errors.New("call did not arrive")
						}
					case "accept":
						var a *Accepted
						a, err = ops.accept(m, "P")
						accepted = append(accepted, a)
					case "acceptSlot":
						var a *Accepted
						a, err = ops.acceptSlot(m, "P", attached[rng.Intn(len(attached))])
						accepted = append(accepted, a)
					case "start":
						i := rng.Intn(len(accepted))
						a := accepted[i]
						accepted = slices.Delete(accepted, i, i+1)
						if err = m.Start(a); err == nil {
							started = append(started, a)
							if !pollUntil(func() bool { return slices.Contains(slotsIn(o, "P", slotReady), a.Slot) }) {
								return errors.New("started body never became ready")
							}
						}
					case "execute":
						i := rng.Intn(len(accepted))
						a := accepted[i]
						accepted = slices.Delete(accepted, i, i+1)
						_, err = m.Execute(a)
						done++
					case "await", "awaitCall":
						var aw *Awaited
						if can[pick] == "await" {
							aw, err = ops.await(m, "P")
						} else {
							aw, err = ops.awaitCall(m, started[rng.Intn(len(started))])
						}
						if err == nil {
							started = slices.DeleteFunc(started, func(a *Accepted) bool { return a.CallID() == aw.CallID() })
							awaited = append(awaited, aw)
						}
					case "finish":
						i := rng.Intn(len(awaited))
						aw := awaited[i]
						awaited = slices.Delete(awaited, i, i+1)
						err = m.Finish(aw, aw.Results[0].(int)+1000)
						done++
					}
					if err != nil {
						return err
					}
				}
				return nil
			}()
			close(progDone)
		}, InterceptPR("P", 1, 1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	<-progDone
	mustClose(t, o)
	callers.Wait()
	if progErr != nil {
		t.Fatalf("seed %d: program: %v", seed, progErr)
	}
	var run oneGuardRun
	for _, e := range rec.Events() {
		run.events = append(run.events, e.String())
	}
	run.points, run.results = log.pts, results
	return run
}

func TestPrimitivesAreOneGuardSelects(t *testing.T) {
	t.Run("errors", testPrimitiveErrors)
	for _, prim := range []string{"Accept", "AcceptSlot", "Await", "AwaitCall"} {
		t.Run(prim, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				want := runOneGuardProgram(t, seed, primOps{})
				got := runOneGuardProgram(t, seed, primOps{asSelect: prim})
				for _, c := range []struct {
					what      string
					prim, sel []string
				}{
					{"trace", want.events, got.events},
					{"sequencer points", want.points, got.points},
					{"caller results", want.results, got.results},
				} {
					if !slices.Equal(c.prim, c.sel) {
						t.Errorf("seed %d: %s differ\nprimitive: %v\nselect:    %v", seed, c.what, c.prim, c.sel)
					}
				}
			}
		})
	}
}

// testPrimitiveErrors pins the errors the primitives report before they
// block: a guard the selection cannot resolve, the negative element that
// AcceptSlot refuses itself, AwaitCall's check that the awaited call is the
// one named, and ErrClosed once the object closes under a blocked
// primitive (and for every primitive run after that).
func testPrimitiveErrors(t *testing.T) {
	type result struct {
		name string
		err  error
	}
	var got []result
	gate := make(chan struct{})
	reused := make(chan struct{})
	body := func(inv *Invocation) error {
		<-gate
		inv.Return(inv.Param(0))
		return nil
	}
	o, err := New("X",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Array: 1, Body: body}),
		WithEntry(EntrySpec{Name: "Q", Params: 1, Results: 1, Body: echoBody}),
		WithManager(func(m *Mgr) {
			defer func() { // a failed setup step returns early
				select {
				case <-reused:
				default:
					close(reused)
				}
			}()
			note := func(name string) func(any, error) {
				return func(_ any, err error) { got = append(got, result{name, err}) }
			}
			note("Accept unknown")(m.Accept("nope"))
			note("AcceptSlot unknown")(m.AcceptSlot("nope", 0))
			note("Await unknown")(m.Await("nope"))
			note("AwaitCall unknown")(m.AwaitCall(&Accepted{Entry: "nope"}))
			note("Accept not intercepted")(m.Accept("Q"))
			note("Await not intercepted")(m.Await("Q"))
			note("AcceptSlot out of range")(m.AcceptSlot("P", 1))
			note("AwaitCall out of range")(m.AwaitCall(&Accepted{Entry: "P", Slot: 1}))
			note("AcceptSlot negative")(m.AcceptSlot("P", -1))

			// Slot reuse: the first call is awaited and finished through
			// Await, its element takes the second call, and AwaitCall on the
			// first call's handle meets the second call there.
			first, err := m.Accept("P")
			if err != nil {
				note("setup")(nil, err)
				return
			}
			_ = m.Start(first)
			close(gate)
			aw, err := m.Await("P")
			if err != nil {
				note("setup")(nil, err)
				return
			}
			_ = m.Finish(aw, aw.Results...)
			second, err := m.AcceptSlot("P", first.Slot)
			if err != nil {
				note("setup")(nil, err)
				return
			}
			_ = m.Start(second)
			note("AwaitCall slot reuse")(m.AwaitCall(first))
			close(reused)

			note("Accept closed")(m.Accept("P")) // blocks until Close
			note("AcceptSlot closed")(m.AcceptSlot("P", 0))
			note("Await closed")(m.Await("P"))
			note("AwaitCall closed")(m.AwaitCall(second))
		}, InterceptPR("P", 1, 1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = o.Call("P", i)
		}()
		if !pollUntil(func() bool { st, _ := o.EntryStats("P"); return st.Calls == uint64(i+1) }) {
			t.Fatal("call did not arrive")
		}
	}
	<-reused
	mustClose(t, o)
	wg.Wait()

	want := []struct {
		name string
		err  error
	}{
		{"Accept unknown", ErrUnknownEntry},
		{"AcceptSlot unknown", ErrUnknownEntry},
		{"Await unknown", ErrUnknownEntry},
		{"AwaitCall unknown", ErrUnknownEntry},
		{"Accept not intercepted", ErrNotIntercepted},
		{"Await not intercepted", ErrNotIntercepted},
		{"AcceptSlot out of range", ErrBadArity},
		{"AwaitCall out of range", ErrBadArity},
		{"AcceptSlot negative", ErrBadArity},
		{"AwaitCall slot reuse", ErrBadState},
		{"Accept closed", ErrClosed},
		{"AcceptSlot closed", ErrClosed},
		{"Await closed", ErrClosed},
		{"AwaitCall closed", ErrClosed},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].name != w.name || !errors.Is(got[i].err, w.err) {
			t.Errorf("%s: err = %v, want %v", got[i].name, got[i].err, w.err)
		}
	}
}
