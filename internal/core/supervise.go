package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/backoff"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ManagerPolicy selects what the runtime does when an object's manager
// process dies (panics). The paper makes the manager the single arbiter of
// an object's synchronization (§2), so a dead manager would otherwise wedge
// every pending and future call forever.
type ManagerPolicy int

const (
	// FailFast poisons the object on the first manager panic: all pending,
	// accepted and future calls fail promptly with ErrObjectPoisoned
	// wrapping the panic. This is the default.
	FailFast ManagerPolicy = iota
	// Restart re-runs the manager function after a panic, with capped
	// exponential backoff and a restart budget. Calls the dead manager had
	// accepted (or awaited) are re-attached (or re-readied) so the new
	// incarnation sees them as fresh arrivals. An exhausted budget poisons
	// the object. The manager function must be restartable: it is invoked
	// from scratch and must rebuild any manager-local state it needs.
	Restart
)

// String implements fmt.Stringer.
func (p ManagerPolicy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case Restart:
		return "restart"
	default:
		return fmt.Sprintf("ManagerPolicy(%d)", int(p))
	}
}

// RestartPolicy tunes the Restart manager policy.
type RestartPolicy struct {
	// Max is the restart budget: the number of restarts allowed before the
	// object is poisoned (default 5).
	Max int
}

// The restart backoff step starts at restartBase and doubles per restart
// up to restartCap; each wait is drawn from [step/2, step], seeded by the
// object's name.
const (
	restartBase = time.Millisecond
	restartCap  = 250 * time.Millisecond
)

func (p RestartPolicy) withDefaults() RestartPolicy {
	if p.Max <= 0 {
		p.Max = 5
	}
	return p
}

// ShedPolicy selects what admission control does with a call that arrives
// while the entry's MaxPending bound is full.
type ShedPolicy int

const (
	// ShedBlock makes the caller wait (honouring its context) until a
	// pending slot frees up. Queue order is preserved: blocked callers are
	// admitted FIFO. This is the default.
	ShedBlock ShedPolicy = iota
	// ShedRejectNewest fails the arriving call with ErrOverload.
	ShedRejectNewest
	// ShedRejectOldest fails the oldest pending call with ErrOverload and
	// admits the arriving one (freshness-biased shedding).
	ShedRejectOldest
)

// String implements fmt.Stringer.
func (p ShedPolicy) String() string {
	switch p {
	case ShedBlock:
		return "block"
	case ShedRejectNewest:
		return "reject-newest"
	case ShedRejectOldest:
		return "reject-oldest"
	default:
		return fmt.Sprintf("ShedPolicy(%d)", int(p))
	}
}

// StallInfo describes one stall-watchdog detection: the oldest pending call
// of the object exceeded the threshold while the manager was still live —
// typically a manager blocked in a guard set that can never fire.
type StallInfo struct {
	Object  string
	Entry   string        // entry of the oldest pending call
	CallID  uint64        // its call id
	Age     time.Duration // how long it has been pending
	Pending int           // the entry's #P at detection time
}

// WatchdogConfig configures the optional per-object stall watchdog. The
// signal is oldest-pending-call age, not manager idle time: a manager
// legitimately blocked in accept on an empty queue never trips it.
type WatchdogConfig struct {
	// Threshold is the pending age that trips the watchdog (0 disables it).
	Threshold time.Duration
	// OnStall, when non-nil, is invoked outside all runtime locks for each
	// detection (at most once per distinct oldest call).
	OnStall func(StallInfo)
}

// interval is the watchdog's poll cadence: a quarter of the threshold, at
// least 1ms.
func (c WatchdogConfig) interval() time.Duration {
	return max(c.Threshold/4, time.Millisecond)
}

// ObjectOptions bundles the supervision and admission-control configuration
// of an object: manager policy, per-entry pending bounds with shed policies,
// a default call deadline, and the stall watchdog. See docs/SUPERVISION.md.
type ObjectOptions struct {
	// ManagerPolicy selects the reaction to a manager panic (default
	// FailFast: poison the object).
	ManagerPolicy ManagerPolicy
	// Restart tunes the Restart policy (budget, backoff).
	Restart RestartPolicy
	// MaxPending bounds each entry's pending calls (#P: waiting + attached,
	// not yet accepted). 0 leaves entries unbounded. EntrySpec.MaxPending
	// overrides it per entry.
	MaxPending int
	// Shed is the policy applied when MaxPending is full (default
	// ShedBlock). Only meaningful together with MaxPending; an entry-level
	// EntrySpec.MaxPending brings its own EntrySpec.Shed.
	Shed ShedPolicy
	// DefaultCallTimeout is applied to Call/CallCtx when the caller's
	// context carries no deadline (0 = none). It bounds the wait for
	// acceptance; an accepted call still runs to completion (§5 of
	// docs/SEMANTICS.md).
	DefaultCallTimeout time.Duration
	// Watchdog configures the stall watchdog (zero Threshold disables).
	Watchdog WatchdogConfig
	// Metrics, when non-nil, accumulates shed/restart/poison/stall
	// counters. Share one instance across objects to aggregate.
	Metrics *metrics.Supervision
	// Sequencer, when non-nil, receives a Point callback at every
	// scheduling decision inside the runtime (see Sequencer). It is the
	// deterministic-schedule hook used by the conformance harness; leave it
	// nil in production (the default costs one branch per point).
	Sequencer Sequencer
	// Journal, when non-nil, receives every delivered call outcome for
	// write-ahead logging (see Journal and internal/wal). Nil — the
	// default — keeps the delivery path free of durability work beyond one
	// nil check.
	Journal Journal
}

// WithObjectOptions attaches supervision and admission-control
// configuration to an object.
func WithObjectOptions(opts ObjectOptions) Option {
	return func(c *config) { c.sup = opts; c.supSet = true }
}

// validate rejects nonsensical supervision configuration at New time.
func (so ObjectOptions) validate(name string, hasMgr bool) error {
	if so.ManagerPolicy == Restart && !hasMgr {
		return fmt.Errorf("object %s: ManagerPolicy Restart: %w", name, ErrNoManager)
	}
	if so.MaxPending < 0 {
		return fmt.Errorf("object %s: negative MaxPending %d: %w", name, so.MaxPending, ErrBadState)
	}
	if so.DefaultCallTimeout < 0 {
		return fmt.Errorf("object %s: negative DefaultCallTimeout: %w", name, ErrBadState)
	}
	if so.Watchdog.Threshold < 0 {
		return fmt.Errorf("object %s: negative watchdog threshold: %w", name, ErrBadState)
	}
	return nil
}

// SupervisionStats is a snapshot of an object's supervision state.
type SupervisionStats struct {
	Restarts int   // manager restarts performed so far
	Poisoned bool  // terminal: manager dead without recovery
	Err      error // the poison error (nil unless Poisoned)
	Sheds    uint64
	Stalls   uint64
}

// SupervisionStats reports the object's supervision counters.
func (o *Object) SupervisionStats() SupervisionStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return SupervisionStats{
		Restarts: o.restarts,
		Poisoned: o.poisoned,
		Err:      o.poisonErr,
		Sheds:    o.sheds,
		Stalls:   o.stalls,
	}
}

// Poisoned reports whether the object has been poisoned. A poisoned object
// fails every call with ErrObjectPoisoned; see docs/SUPERVISION.md.
func (o *Object) Poisoned() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.poisoned
}

// superviseManager runs manager incarnations until one returns normally,
// the object closes, or the policy gives up and poisons the object. It owns
// o.mgrDone: the channel closes when no further incarnation will run.
func (o *Object) superviseManager() {
	defer close(o.mgrDone)
	pol := o.sup.Restart.withDefaults()
	b := backoff.Schedule{Base: restartBase, Cap: restartCap, Seed: backoff.Seed(o.name)}
	for {
		m := newMgr(o)
		o.mgr.Store(m)
		reason := o.runManagerOnce(m)
		if reason == nil {
			// The manager returned of its own accord (normally after
			// Loop/Select reports ErrClosed). If the object is still open,
			// accepted-but-unstarted calls can no longer progress; mark the
			// manager gone so cancellation can withdraw them.
			o.mu.Lock()
			o.mgrGone = true
			o.mu.Unlock()
			return
		}
		o.mu.Lock()
		o.mgrErr = reason
		closed := o.closed
		restarts := o.restarts
		o.mu.Unlock()
		if closed {
			return
		}
		if o.sup.ManagerPolicy != Restart || restarts >= pol.Max {
			o.poison(reason)
			return
		}
		o.mu.Lock()
		o.restarts++
		o.requeueForRestartLocked()
		o.mu.Unlock()
		if s := o.sup.Metrics; s != nil {
			s.Restarts.Inc()
		}
		o.record("", -1, uint64(restarts+1), trace.MgrRestart)
		if !b.Wait(o.closeCh) {
			return
		}
	}
}

// runManagerOnce executes one manager incarnation, converting a panic into
// an error and releasing the incarnation's channel subscriptions.
func (o *Object) runManagerOnce(m *Mgr) (reason error) {
	defer func() {
		if r := recover(); r != nil {
			m.abandonScan()
			reason = fmt.Errorf("alps: manager of %s panicked: %v", o.name, r)
		}
		m.unsubscribeAll()
	}()
	o.mgrFn(m)
	return nil
}

// requeueForRestartLocked rolls manager-held call state back so the next
// incarnation sees it afresh: accepted-but-unstarted calls re-attach,
// awaited-but-unfinished calls become ready again. Started bodies keep
// running; their completions queue as ready for the new manager.
func (o *Object) requeueForRestartLocked() {
	for _, name := range o.order {
		e := o.entries[name]
		for _, s := range e.slots {
			switch s.state {
			case slotAccepted:
				s.state = slotAttached
				e.attached = enlist(e.attached, s)
				o.record(name, s.index, s.call.id, trace.Attached)
			case slotAwaited:
				s.state = slotReady
				e.ready = enlist(e.ready, s)
				o.record(name, s.index, s.call.id, trace.Ready)
			}
		}
	}
}

// poison marks the object terminally failed: every pending, accepted,
// ready and awaited call fails now with ErrObjectPoisoned (wrapping the
// manager's panic), running bodies are cancelled via Invocation.Ctx, and
// every future call fails at submission. Started bodies deliver the poison
// error when they complete (the dead manager cannot endorse their results).
func (o *Object) poison(reason error) {
	perr := fmt.Errorf("alps: object %s poisoned: %v: %w", o.name, reason, ErrObjectPoisoned)
	o.mu.Lock()
	if o.poisoned || o.closed {
		o.mu.Unlock()
		return
	}
	o.poisoned = true
	o.poisonErr = perr
	// Counted before any caller can observe the poison error.
	if s := o.sup.Metrics; s != nil {
		s.Poisons.Inc()
	}
	o.closeIntakeLocked()
	for _, name := range o.order {
		e := o.entries[name]
		for _, cr := range e.waitq {
			o.deliverLocked(cr, nil, perr)
			o.record(name, -1, cr.id, trace.Failed)
			cr.release(o) // runtime reference: the call never attached
		}
		e.waitq = nil
		for _, s := range e.slots {
			switch s.state {
			case slotAttached, slotAccepted, slotReady, slotAwaited:
				if s.state == slotReady || s.state == slotAwaited {
					e.active-- // body finished; nobody will Finish it
				}
				o.deliverLocked(s.call, nil, perr)
				o.record(name, s.index, s.call.id, trace.Failed)
				o.freeSlotLocked(s)
			}
		}
		o.releaseAdmissionWaitersLocked(e)
	}
	o.record("", -1, 0, trace.Poisoned)
	o.mu.Unlock()
	o.lifeCancel() // running bodies observe Invocation.Ctx cancellation
}

// releaseAdmissionWaitersLocked wakes every caller blocked in admission
// control (ShedBlock); they re-examine the object under the lock and fail
// with the poison or close error.
func (o *Object) releaseAdmissionWaitersLocked(e *entry) {
	for _, ch := range e.spaceq {
		close(ch)
	}
	e.spaceq = nil
}

// notifySpaceLocked admits blocked callers for the pending capacity that
// just freed up, FIFO. Each closed channel admits one caller, which
// re-checks the bound under the lock, so overshoot is impossible.
func (o *Object) notifySpaceLocked(e *entry) {
	if e.maxPending <= 0 || len(e.spaceq) == 0 {
		return
	}
	free := e.maxPending - e.pending()
	for free > 0 && len(e.spaceq) > 0 {
		close(e.spaceq[0])
		e.spaceq = e.spaceq[1:]
		free--
	}
}

// removeAdmissionWaiterLocked abandons a blocked caller's wait slot. If the
// channel was already closed (a grant raced with the abandonment), the
// grant is passed on so capacity is not lost.
func (o *Object) removeAdmissionWaiterLocked(e *entry, ch chan struct{}) {
	for i, w := range e.spaceq {
		if w == ch {
			e.spaceq = append(e.spaceq[:i], e.spaceq[i+1:]...)
			return
		}
	}
	o.notifySpaceLocked(e) // ch was granted; hand the space to the next waiter
}

// shedNewestLocked rejects an arriving call with ErrOverload and counts it.
func (o *Object) shedNewestLocked(e *entry) error {
	id := o.nextCallID.Add(1)
	e.shed++
	o.sheds++
	o.record(e.spec.Name, -1, id, trace.Shed)
	if s := o.sup.Metrics; s != nil {
		s.Sheds.Inc()
	}
	return fmt.Errorf("object %s: entry %s: %d pending (max %d): %w",
		o.name, e.spec.Name, e.pending(), e.maxPending, ErrOverload)
}

// shedOldestLocked fails the oldest pending call of e with ErrOverload,
// freeing one pending slot for an arriving call. It reports whether a
// victim was found.
func (o *Object) shedOldestLocked(e *entry) bool {
	fail := func(cr *callRecord) {
		err := fmt.Errorf("object %s: entry %s: shed by newer arrival (max %d pending): %w",
			o.name, e.spec.Name, e.maxPending, ErrOverload)
		o.deliverLocked(cr, nil, err)
		e.shed++
		o.sheds++
		o.record(e.spec.Name, cr.slotIndex(), cr.id, trace.Shed)
		if s := o.sup.Metrics; s != nil {
			s.Sheds.Inc()
		}
	}
	// Attached calls are older than waiting ones (attachment is FIFO), so
	// prefer the attached slot with the smallest call id.
	var victim *pend
	for i := range e.attached {
		if p := &e.attached[i]; victim == nil || p.id < victim.id {
			victim = p
		}
	}
	if victim != nil {
		s := victim.s // freeSlotLocked delists: victim's record is overwritten
		fail(victim.call)
		o.freeSlotLocked(s)
		return true
	}
	if len(e.waitq) > 0 {
		cr := e.waitq[0]
		e.waitq = e.waitq[1:]
		fail(cr)
		cr.release(o) // runtime reference: the call never attached
		return true
	}
	return false
}

// admitLocked applies the entry's admission bound to an arriving call,
// blocking (per ShedBlock) with o.mu held-and-released until there is room,
// the context ends, or the object dies. It returns with o.mu held and the
// object re-validated; a non-nil error means the call was not admitted (and
// the lock is released).
func (o *Object) admitLocked(ctx context.Context, e *entry) error {
	for {
		if o.closed {
			o.mu.Unlock()
			return fmt.Errorf("object %s: %w", o.name, ErrClosed)
		}
		if o.poisoned {
			err := o.poisonErr
			o.mu.Unlock()
			return err
		}
		if e.maxPending <= 0 || e.pending() < e.maxPending {
			return nil
		}
		switch e.shedPolicy {
		case ShedRejectNewest:
			err := o.shedNewestLocked(e)
			o.mu.Unlock()
			return err
		case ShedRejectOldest:
			if o.shedOldestLocked(e) {
				return nil
			}
			// No pending victim (bound smaller than the hidden array and
			// everything already accepted): reject the newcomer instead.
			err := o.shedNewestLocked(e)
			o.mu.Unlock()
			return err
		default: // ShedBlock
			ch := make(chan struct{})
			e.spaceq = append(e.spaceq, ch)
			o.mu.Unlock()
			select {
			case <-ch:
				o.mu.Lock()
			case <-ctx.Done():
				o.mu.Lock()
				o.removeAdmissionWaiterLocked(e, ch)
				o.mu.Unlock()
				return ctx.Err()
			case <-o.lifeCtx.Done():
				// Close or poison: loop re-checks under the lock and
				// returns the precise error.
				o.mu.Lock()
				o.removeAdmissionWaiterLocked(e, ch)
			}
		}
	}
}

// runWatchdog polls the object's oldest pending call age and reports a
// stall — trace event, metric, optional callback — when it exceeds the
// threshold while the manager is live. The signal is oldest-pending-age,
// not manager idle time, so a manager blocked in accept on an empty queue
// never trips it. Each distinct oldest call fires at most once.
func (o *Object) runWatchdog(cfg WatchdogConfig) {
	defer close(o.wdDone)
	t := time.NewTicker(cfg.interval())
	defer t.Stop()
	var lastFired uint64
	for {
		select {
		case <-o.closeCh:
			return
		case <-t.C:
		}
		now := time.Now()
		o.mu.Lock()
		o.drainIntakeLocked() // age mailbox arrivals like any pending call
		if o.poisoned || o.mgrGone {
			// Not a live-manager stall: poison already failed the calls,
			// and a voluntarily-exited manager is not coming back.
			o.mu.Unlock()
			continue
		}
		info, ok := o.oldestPendingLocked(now)
		if ok && info.Age >= cfg.Threshold && info.CallID != lastFired {
			lastFired = info.CallID
			o.stalls++
			o.mu.Unlock()
			if s := o.sup.Metrics; s != nil {
				s.Stalls.Inc()
			}
			o.record(info.Entry, -1, info.CallID, trace.Stalled)
			if cfg.OnStall != nil {
				cfg.OnStall(info)
			}
			continue
		}
		o.mu.Unlock()
	}
}

// oldestPendingLocked finds the oldest pending (waiting or attached, not
// yet accepted) call across all entries. Waiting queues are FIFO, so only
// their heads need checking; attached indexes are scanned in full (delist
// breaks their order).
func (o *Object) oldestPendingLocked(now time.Time) (StallInfo, bool) {
	var best StallInfo
	var bestArrived time.Time
	found := false
	for _, name := range o.order {
		e := o.entries[name]
		consider := func(cr *callRecord) {
			if cr.arrived.IsZero() {
				return
			}
			if !found || cr.arrived.Before(bestArrived) {
				found = true
				bestArrived = cr.arrived
				best = StallInfo{Object: o.name, Entry: name, CallID: cr.id, Pending: e.pending()}
			}
		}
		if len(e.waitq) > 0 {
			consider(e.waitq[0])
		}
		for i := range e.attached {
			consider(e.attached[i].call)
		}
	}
	if found {
		best.Age = now.Sub(bestArrived)
	}
	return best, found
}
