// Package philosophers solves dining philosophers with an ALPS manager:
// the Dine entry's acceptance condition reads the philosopher's seat from
// the invocation parameters and admits the call only while *both* forks
// are free, taking them atomically. Hold-and-wait never occurs, so the
// classic deadlock cannot: centralized allocation through the manager is
// exactly the paper's answer to scattered synchronization (§1).
package philosophers

import (
	"fmt"
	"sync/atomic"
	"time"

	alps "repro"
)

// Table seats N philosophers around N shared forks.
type Table struct {
	obj *alps.Object
	n   int

	meals      atomic.Uint64
	eating     []atomic.Int32 // per-seat eating flag, for violation detection
	violations atomic.Int64   // adjacent philosophers eating simultaneously
}

// Config configures a table.
type Config struct {
	Seats   int           // philosophers (and forks); at least 2
	EatTime time.Duration // simulated eating time per meal
}

// New lays the table.
func New(cfg Config) (*Table, error) {
	if cfg.Seats < 2 {
		return nil, fmt.Errorf("philosophers: %d seats", cfg.Seats)
	}
	t := &Table{n: cfg.Seats, eating: make([]atomic.Int32, cfg.Seats)}

	dine := func(inv *alps.Invocation) error {
		seat, ok := inv.Param(0).(int)
		if !ok || seat < 0 || seat >= t.n {
			return fmt.Errorf("philosophers: invalid seat %v", inv.Param(0))
		}
		left := seat
		right := (seat + 1) % t.n
		// Violation oracle: my neighbours must not be eating now.
		if t.eating[(seat+t.n-1)%t.n].Load() == 1 || t.eating[right].Load() == 1 {
			t.violations.Add(1)
		}
		t.eating[seat].Store(1)
		if cfg.EatTime > 0 {
			time.Sleep(cfg.EatTime)
		}
		t.eating[seat].Store(0)
		t.meals.Add(1)
		_ = left
		return nil
	}

	manager := func(m *alps.Mgr) {
		forkFree := make([]bool, t.n)
		for i := range forkFree {
			forkFree[i] = true
		}
		forks := func(seat int) (int, int) { return seat, (seat + 1) % t.n }
		_ = m.Loop(
			alps.OnAccept("Dine", func(a *alps.Accepted) {
				seat, ok := a.Params[0].(int)
				if !ok || seat < 0 || seat >= t.n {
					// Malformed call: start without forks; the body rejects it.
					_ = m.Start(a)
					return
				}
				l, r := forks(seat)
				if err := m.Start(a); err == nil {
					forkFree[l], forkFree[r] = false, false
				}
			}).When(func(a *alps.Accepted) bool {
				seat, ok := a.Params[0].(int)
				if !ok || seat < 0 || seat >= t.n {
					return true // admit immediately; the body rejects it
				}
				l, r := forks(seat)
				return forkFree[l] && forkFree[r]
			}),
			alps.OnAwait("Dine", func(aw *alps.Awaited) {
				// The seat comes back as a hidden result so the manager
				// needs no slot→seat bookkeeping (§2.8).
				if err := m.Finish(aw); err != nil {
					return
				}
				if aw.Err == nil {
					if seat, ok := aw.Hidden[0].(int); ok {
						l, r := forks(seat)
						forkFree[l], forkFree[r] = true, true
					}
				}
			}),
		)
	}

	body := func(inv *alps.Invocation) error {
		if err := dine(inv); err != nil {
			return err
		}
		inv.ReturnHidden(inv.Param(0))
		return nil
	}

	obj, err := alps.New("Philosophers",
		alps.WithEntry(alps.EntrySpec{
			Name: "Dine", Params: 1, Array: cfg.Seats, HiddenResults: 1, Body: body,
		}),
		alps.WithManager(manager, alps.InterceptPR("Dine", 1, 0)),
	)
	if err != nil {
		return nil, err
	}
	t.obj = obj
	return t, nil
}

// Dine has philosopher seat eat one meal, blocking until both forks are
// granted and the meal completes.
func (t *Table) Dine(seat int) error {
	if seat < 0 || seat >= t.n {
		return fmt.Errorf("philosophers: seat %d of %d", seat, t.n)
	}
	_, err := t.obj.Call("Dine", seat)
	return err
}

// Stats reports meals served and adjacency violations (two neighbours
// eating simultaneously — always 0 if the manager allocates correctly).
func (t *Table) Stats() (meals uint64, violations int) {
	return t.meals.Load(), int(t.violations.Load())
}

// Seats reports the table size.
func (t *Table) Seats() int { return t.n }

// Object exposes the underlying ALPS object.
func (t *Table) Object() *alps.Object { return t.obj }

// Close clears the table.
func (t *Table) Close() error { return t.obj.Close() }
