// Package parbuffer implements the paper's parallel bounded buffer
// (§2.8.2): Deposit and Remove are hidden procedure arrays so several
// producers and consumers are serviced in parallel. The manager deals only
// in buffer-slot *indices*: it supplies a free slot index to each Deposit
// (and a full slot index to each Remove) as a hidden parameter, and gets
// the index back as a hidden result when the procedure terminates. The
// potentially long message copies into and out of Buf therefore run
// concurrently, outside the manager, with no further synchronization —
// each slot index is held by exactly one running procedure.
package parbuffer

import (
	"fmt"
	"sync/atomic"
	"time"

	alps "repro"
)

// Config configures a parallel bounded buffer.
type Config struct {
	Slots       int           // N message slots
	ProducerMax int           // Deposit hidden array size (default 4)
	ConsumerMax int           // Remove hidden array size (default 4)
	CopyCost    time.Duration // simulated per-message copy time (long messages)
}

// Buffer is a parallel bounded buffer.
type Buffer struct {
	obj *alps.Object

	// Shared data part: the message slots. Slot exclusivity is guaranteed
	// by the manager's index bookkeeping, not by locks.
	buf []alps.Value

	deposits atomic.Uint64
	removes  atomic.Uint64
	// overlap detection: slot i must never be used by two procedures at once.
	slotBusy   []atomic.Int32
	violations atomic.Int64
}

// New creates a parallel bounded buffer.
func New(cfg Config) (*Buffer, error) {
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("parbuffer: %d slots", cfg.Slots)
	}
	if cfg.ProducerMax == 0 {
		cfg.ProducerMax = 4
	}
	if cfg.ConsumerMax == 0 {
		cfg.ConsumerMax = 4
	}
	if cfg.ProducerMax < 1 || cfg.ConsumerMax < 1 {
		return nil, fmt.Errorf("parbuffer: ProducerMax %d, ConsumerMax %d", cfg.ProducerMax, cfg.ConsumerMax)
	}
	b := &Buffer{
		buf:      make([]alps.Value, cfg.Slots),
		slotBusy: make([]atomic.Int32, cfg.Slots),
	}

	deposit := func(inv *alps.Invocation) error {
		place := inv.Hidden(0).(int)
		if !b.slotBusy[place].CompareAndSwap(0, 1) {
			b.violations.Add(1)
		}
		if cfg.CopyCost > 0 {
			time.Sleep(cfg.CopyCost) // long message copy
		}
		b.buf[place] = inv.Param(0)
		b.slotBusy[place].Store(0)
		b.deposits.Add(1)
		inv.ReturnHidden(place)
		return nil
	}
	remove := func(inv *alps.Invocation) error {
		place := inv.Hidden(0).(int)
		if !b.slotBusy[place].CompareAndSwap(0, 1) {
			b.violations.Add(1)
		}
		if cfg.CopyCost > 0 {
			time.Sleep(cfg.CopyCost)
		}
		m := b.buf[place]
		b.buf[place] = nil
		b.slotBusy[place].Store(0)
		b.removes.Add(1)
		inv.Return(m)
		inv.ReturnHidden(place)
		return nil
	}

	manager := func(m *alps.Mgr) {
		n := cfg.Slots
		// Free and Full are rings of slot indices; Max and Min count them
		// (the paper's variable names).
		free := make([]int, n)
		full := make([]int, n)
		var freeIn, freeOut, fullIn, fullOut int
		maxFree, minFull := n, 0
		for i := 0; i < n; i++ {
			free[i] = i
		}
		_ = m.Loop(
			alps.OnAccept("Deposit", func(a *alps.Accepted) {
				place := free[freeOut]
				if err := m.Start(a, place); err != nil {
					return
				}
				freeOut = (freeOut + 1) % n
				maxFree--
			}).When(func(*alps.Accepted) bool { return maxFree > 0 }),
			alps.OnAwait("Deposit", func(aw *alps.Awaited) {
				if err := m.Finish(aw); err != nil {
					return
				}
				if aw.Err != nil {
					return
				}
				full[fullIn] = aw.Hidden[0].(int)
				fullIn = (fullIn + 1) % n
				minFull++
			}),
			alps.OnAccept("Remove", func(a *alps.Accepted) {
				place := full[fullOut]
				if err := m.Start(a, place); err != nil {
					return
				}
				fullOut = (fullOut + 1) % n
				minFull--
			}).When(func(*alps.Accepted) bool { return minFull > 0 }),
			alps.OnAwait("Remove", func(aw *alps.Awaited) {
				if err := m.Finish(aw); err != nil {
					return
				}
				if aw.Err != nil {
					return
				}
				free[freeIn] = aw.Hidden[0].(int)
				freeIn = (freeIn + 1) % n
				maxFree++
			}),
		)
	}

	obj, err := alps.New("ParBuffer",
		alps.WithEntry(alps.EntrySpec{
			Name: "Deposit", Params: 1, Array: cfg.ProducerMax,
			HiddenParams: 1, HiddenResults: 1, Body: deposit,
		}),
		alps.WithEntry(alps.EntrySpec{
			Name: "Remove", Results: 1, Array: cfg.ConsumerMax,
			HiddenParams: 1, HiddenResults: 1, Body: remove,
		}),
		alps.WithManager(manager, alps.Intercept("Deposit"), alps.Intercept("Remove")),
	)
	if err != nil {
		return nil, err
	}
	b.obj = obj
	return b, nil
}

// Deposit stores a message, blocking while no buffer slot is free.
func (b *Buffer) Deposit(msg alps.Value) error {
	_, err := b.obj.Call("Deposit", msg)
	return err
}

// Remove returns a buffered message, blocking while none is available.
// Unlike the serial buffer, consumers may receive messages from any
// producer, and global FIFO order is not guaranteed — only conservation.
func (b *Buffer) Remove() (alps.Value, error) {
	res, err := b.obj.Call("Remove")
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Stats reports deposits, removes, and slot-sharing violations (always 0 if
// the manager's index bookkeeping is correct).
func (b *Buffer) Stats() (deposits, removes uint64, violations int) {
	return b.deposits.Load(), b.removes.Load(), int(b.violations.Load())
}

// Object exposes the underlying ALPS object.
func (b *Buffer) Object() *alps.Object { return b.obj }

// Close shuts the buffer down.
func (b *Buffer) Close() error { return b.obj.Close() }
