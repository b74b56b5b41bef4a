// Package alarmclock implements the classic alarm-clock scheduling problem
// as an ALPS object: Wakeme(n) blocks its caller for n clock ticks. It
// demonstrates two mechanisms together: a *receive guard* in the manager's
// loop (ticks arrive as messages on an asynchronous channel, §2.1.2/§2.4)
// and manager-side parking of accepted-but-not-started calls — the same
// pattern the combining dictionary uses, here keyed on time instead of on
// a word.
package alarmclock

import (
	"fmt"
	"sync/atomic"
	"time"

	alps "repro"
	"repro/internal/channel"
)

// Clock is an alarm clock driven by explicit ticks.
type Clock struct {
	obj   *alps.Object
	ticks *channel.Chan

	now    atomic.Int64 // ticks elapsed (monitoring)
	parked atomic.Int64 // callers currently waiting (monitoring)
}

// Config configures the clock.
type Config struct {
	SleeperMax int // hidden Wakeme array size: max simultaneous sleepers (default 16)
}

// New creates a stopped clock; call Tick (or run Ticker) to advance time.
func New(cfg Config) (*Clock, error) {
	if cfg.SleeperMax == 0 {
		cfg.SleeperMax = 16
	}
	if cfg.SleeperMax < 1 {
		return nil, fmt.Errorf("alarmclock: SleeperMax %d", cfg.SleeperMax)
	}
	c := &Clock{ticks: channel.New("ticks", channel.WithArity(0))}

	// The body just reports how long the caller actually slept; the manager
	// rewrites the intercepted parameter to that value before starting.
	wakeme := func(inv *alps.Invocation) error {
		inv.Return(inv.Param(0))
		return nil
	}

	manager := func(m *alps.Mgr) {
		now := int64(0)
		type sleeper struct {
			due int64
			a   *alps.Accepted
		}
		var parked []sleeper

		release := func() {
			kept := parked[:0]
			for _, s := range parked {
				if s.due <= now {
					s.a.Params[0] = int(now) // actual wake tick
					if err := m.Start(s.a); err == nil {
						c.parked.Add(-1)
					}
					continue
				}
				kept = append(kept, s)
			}
			parked = kept
		}

		_ = m.Loop(
			alps.OnAccept("Wakeme", func(a *alps.Accepted) {
				n := a.Params[0].(int)
				if n <= 0 {
					// Wake immediately: start with the current tick.
					a.Params[0] = int(now)
					_ = m.Start(a)
					return
				}
				parked = append(parked, sleeper{due: now + int64(n), a: a})
				c.parked.Add(1)
			}),
			alps.OnAwait("Wakeme", func(aw *alps.Awaited) {
				_ = m.Finish(aw, aw.Results...)
			}),
			alps.OnReceive(c.ticks, func(channel.Message) {
				now++
				c.now.Store(now)
				release()
			}),
		)
	}

	obj, err := alps.New("AlarmClock",
		alps.WithEntry(alps.EntrySpec{
			Name: "Wakeme", Params: 1, Results: 1, Array: cfg.SleeperMax, Body: wakeme,
		}),
		alps.WithManager(manager, alps.InterceptPR("Wakeme", 1, 1)),
	)
	if err != nil {
		return nil, err
	}
	c.obj = obj
	return c, nil
}

// Wakeme blocks until n ticks have elapsed (immediately if n <= 0) and
// returns the tick count at which the caller was woken.
func (c *Clock) Wakeme(n int) (wokeAt int, err error) {
	res, err := c.obj.Call("Wakeme", n)
	if err != nil {
		return 0, err
	}
	return res[0].(int), nil
}

// Tick advances the clock by one tick.
func (c *Clock) Tick() error {
	return c.ticks.Send()
}

// Ticker advances the clock every interval until stop is closed.
func (c *Clock) Ticker(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if c.Tick() != nil {
				return
			}
		case <-stop:
			return
		case <-c.obj.Done():
			return
		}
	}
}

// Now reports the current tick count.
func (c *Clock) Now() int64 { return c.now.Load() }

// Sleeping reports how many callers are currently parked.
func (c *Clock) Sleeping() int64 { return c.parked.Load() }

// Object exposes the underlying ALPS object.
func (c *Clock) Object() *alps.Object { return c.obj }

// Close shuts the clock down; parked sleepers fail with alps.ErrClosed.
func (c *Clock) Close() error {
	c.ticks.Close()
	return c.obj.Close()
}
