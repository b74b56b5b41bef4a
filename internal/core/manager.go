package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/channel"
	"repro/internal/trace"
)

// Mgr is the handle the manager process uses to run the object's
// synchronization and scheduling. It provides the paper's four primitives —
// accept, start, await, finish — plus the packaged execute, combining
// (FinishAccepted), pending-call counts, and the select/loop guard engine.
// There is one selection path: a standalone accept, await or receive is a
// Select over one guard, so it scans, rotates among tied calls and reports
// sequencer points exactly as that Select does.
//
// All methods must be called by the process holding the manager role. That
// is the manager function's own process, except while the manager is
// parked in Loop with nothing eligible and no call waiting: a caller that
// submits then may take the role and run the Loop's next iterations —
// scan, commit, the guard's action — on its own goroutine (Mgr.serve), so
// an uncontended call costs no goroutine wake-up. The role hand-off orders
// every access, so manager state needs no locks; but an action must not
// rely on which goroutine runs it (goroutine-local state,
// runtime.LockOSThread).
type Mgr struct {
	obj    *Object
	pokeCh chan struct{}
	rot    int // rotation counter for fair tie-breaking among minimum-pri alternatives

	// role says who runs the manager (roleMgr, roleParked, roleHeld); see
	// lendLocked and serve. roleCh carries the role back to a manager
	// goroutine parked in Loop — its own signal, so it never competes with
	// a role holder blocked in a primitive for a poke. lent is the parked
	// Loop's guard set and reraise an action panic a holder hands back;
	// both are published by the role hand-off.
	role    atomic.Int32
	roleCh  chan struct{}
	lent    []Guard
	reraise any

	subs   map[*channel.Chan]*subRec
	subGen uint64 // bumped per prepared guard set; stale subs are swept

	// inScan is true while Select holds the object lock to evaluate guards.
	// Guard predicates run in that window on the role holder's process, so
	// Pending/Active must read state directly instead of re-locking, and a
	// predicate's panic leaves the lock for abandonScan to release. Only
	// the role holder reads or writes this field.
	inScan bool

	// Guard-set cache (role holder only): Loop passes the same guards
	// slice to Select on every iteration, so validation, entry resolution
	// and the watch set are computed once and stamped into the guards
	// (Guard.prep); a matching (first, len, stamp) triple skips prepare.
	lastFirst *Guard
	lastLen   int
	lastPrep  uint64
	prepSeq   uint64
	lastWatch *watchSet

	// watch publishes the set of entries the manager's current (or most
	// recent) blocking construct can react to; wakers consult it to elide
	// pokes for entries no guard watches. Immutable once stored.
	watch atomic.Pointer[watchSet]

	// dirty/idle implement the wakeup handshake (a Dekker-style flag pair,
	// both seq-cst): the manager clears dirty, scans, publishes idle, then
	// re-checks dirty before blocking; a waker sets dirty and pokes only if
	// idle is set. Either the waker sees idle and pokes, or the manager
	// sees dirty and rescans — a wakeup can never be lost.
	dirty atomic.Int32
	idle  atomic.Int32

	// Reused scan state (role holder only): the running tie set,
	// watch scratch, and the scratch handles guard predicates and priorities
	// are evaluated against (nothing is materialized for losing candidates).
	ties         tieSet
	watchScratch []*entry
	scratchA     Accepted
	scratchAw    Awaited

	// one is the guard set of the standalone primitives (Accept, AcceptSlot,
	// Await, AwaitCall), rebuilt only when the kind, entry or element
	// changes, so a manager looping on one primitive hits prepare's cache.
	// Its actions, bound once in newMgr, park the selected handle in gotA or
	// gotAw for the primitive to return.
	one      [1]Guard
	onAccept func(*Accepted)
	onAwait  func(*Awaited)
	gotA     *Accepted
	gotAw    *Awaited

	// prevWatch is the watch set published before lastWatch (prepare).
	prevWatch *watchSet

	// own is the call of the caller holding the role (serve), nil on the
	// manager goroutine; ownPosted says an action has started it, so its
	// body is posted to the holder (startBodyLocked). Role holder only.
	own       *callRecord
	ownPosted bool
}

// watchSet is an immutable set of entries a blocked manager can react to.
// all is set when a cond guard is present: arbitrary object state may flip
// it, so every change must wake the manager.
type watchSet struct {
	all     bool
	entries []*entry
}

// watchAllSet is the shared "wake me for everything" set.
var watchAllSet = &watchSet{all: true}

// watches reports whether ws is a set of exactly these entries.
func (ws *watchSet) watches(entries []*entry) bool {
	return ws != nil && !ws.all && slices.Equal(ws.entries, entries)
}

type subRec struct {
	unsub func()
	gen   uint64
}

// The manager role's states. roleMgr: the manager goroutine runs (or is
// blocked in a primitive that lends nothing). roleParked: it is parked in
// Loop with nothing eligible, and the role is free. roleHeld: a caller took
// it and is running the Loop's steps (serve).
const (
	roleMgr int32 = iota
	roleParked
	roleHeld
)

func newMgr(o *Object) *Mgr {
	m := &Mgr{
		obj:    o,
		pokeCh: make(chan struct{}, 1),
		roleCh: make(chan struct{}, 1),
		subs:   make(map[*channel.Chan]*subRec),
	}
	m.onAccept = func(a *Accepted) { m.gotA = a }
	m.onAwait = func(aw *Awaited) { m.gotAw = aw }
	return m
}

// Object returns the object this manager controls.
func (m *Mgr) Object() *Object { return m.obj }

func (m *Mgr) poke() {
	select {
	case m.pokeCh <- struct{}{}:
	default:
	}
}

// interested reports whether the manager's published watch set covers e.
// A nil set (manager not yet blocked on anything) conservatively matches.
func (m *Mgr) interested(e *entry) bool {
	ws := m.watch.Load()
	if ws == nil || ws.all {
		return true
	}
	for _, we := range ws.entries {
		if we == e {
			return true
		}
	}
	return false
}

// wake is the waker half of the poke-elision handshake: publish the change,
// then poke only if the manager is (or is about to be) blocked. When the
// manager goroutine is parked in Loop, a submitting caller (take) takes the
// role and wake reports true: the caller runs the next steps itself. Any
// other waker hands the role back to the manager goroutine.
func (m *Mgr) wake(take bool) bool {
	m.dirty.Store(1)
	if m.role.Load() == roleParked {
		if take && m.role.CompareAndSwap(roleParked, roleHeld) {
			return true
		}
		m.resume(roleParked)
	}
	if m.idle.Load() != 0 {
		m.poke()
	}
	return false
}

// resume gives the role to the manager goroutine parked in Loop, if the
// role is still in state from; it reports whether it did.
func (m *Mgr) resume(from int32) bool {
	if !m.role.CompareAndSwap(from, roleMgr) {
		return false
	}
	m.roleCh <- struct{}{}
	return true
}

// lendLocked parks the manager goroutine inside Loop after a scan found
// nothing eligible (o.mu held on entry, released). Unlike blockLocked it
// leaves the role free: the first caller to submit takes it (wake) and runs
// the Loop's next steps on its own goroutine; any other state change hands
// the role back. The same Dekker pair as dirty/idle, with role in idle's
// place, keeps it lossless: either a waker sees roleParked, or this
// re-check sees dirty. The manager goroutine waits on roleCh, not pokeCh,
// so pokes reach a holder blocked in a primitive. An action panic on a
// holder's goroutine comes back here and is re-raised, so supervision sees
// it exactly as a panic on the manager goroutine.
func (m *Mgr) lendLocked(guards []Guard) {
	m.lent = guards
	m.role.Store(roleParked)
	m.obj.mu.Unlock()
	if m.dirty.Load() != 0 && m.role.CompareAndSwap(roleParked, roleMgr) {
		return
	}
	<-m.roleCh
	if r := m.reraise; r != nil {
		m.reraise = nil
		panic(r)
	}
}

// serveAfter is how many selections a holder still runs once its own call
// is delivered. The action that delivered it often made one waiting call
// eligible (a buffer's deposit unblocks a remove); running that one here
// spares the manager goroutine a wake-up at every full/empty crossing.
const serveAfter = 1

// serve runs the parked Loop's iterations on a submitting caller's
// goroutine, which holds the role (wake returned true). It steps until the
// caller's own call cr is delivered or ctx is done, then runs at most
// serveAfter more selections and one more scan: an action may have made
// another call eligible, and Loop scans again after every action. It gives
// the role back parked when a scan finds nothing eligible, re-checking
// dirty as lendLocked does; a change since the scan is served by one more
// step while its own call is undelivered, and otherwise by the manager
// goroutine (resume). So it never serves other callers' traffic unbounded.
// It reports whether it woke the manager goroutine.
//
// A holder whose call an action has started stops the same way: the start
// posted the body to it (resultCh), and it runs the body once it has
// returned the role.
func (m *Mgr) serve(ctx context.Context, cr *callRecord) (resumed bool) {
	held := true
	m.own = cr
	defer func() {
		if held { // a guard or action panicked (or exited its goroutine) mid-step
			m.reraise = recover()
			m.abandonScan()
			m.own, m.ownPosted = nil, false
			resumed = m.resume(roleHeld)
		}
	}()
	left := -1 // selections left once the own call is delivered or posted
	for {
		i, err := m.loopStep(m.lent)
		if err != nil || (i >= 0 && left == 0) {
			held = false
			m.own, m.ownPosted = nil, false
			return m.resume(roleHeld)
		}
		if i >= 0 {
			if left > 0 {
				left--
			} else if left < 0 && (len(cr.resultCh) != 0 || ctx.Err() != nil) {
				left = serveAfter
			}
			continue
		}
		held = false
		m.own, m.ownPosted = nil, false
		m.obj.mu.Unlock()
		m.role.Store(roleParked)
		if m.dirty.Load() == 0 {
			return false
		}
		if left >= 0 || !m.role.CompareAndSwap(roleParked, roleHeld) {
			return m.resume(roleParked)
		}
		held = true
		m.own = cr
	}
}

// blockLocked is called with o.mu held after a scan found nothing eligible.
// It publishes idle, releases the lock, re-checks dirty (closing the race
// with wakers that missed the idle flag) and blocks until a poke or close.
//
// A holder whose action started its own call is the process its body was
// posted to, and the block may be waiting for that body: it first submits
// the body to the pool, which runs it on a process of its own.
func (m *Mgr) blockLocked() error {
	o := m.obj
	if m.ownPosted {
		m.ownPosted = false
		<-m.own.resultCh // the posting: the body has not run
		if o.pool.Go(m.own.runFn) != nil {
			o.failStartLocked(m.own)
		}
	}
	m.idle.Store(1)
	o.mu.Unlock()
	if m.dirty.Load() != 0 {
		m.idle.Store(0)
		return nil
	}
	select {
	case <-m.pokeCh:
		m.idle.Store(0)
		return nil
	case <-o.closeCh:
		m.idle.Store(0)
		return ErrClosed
	}
}

func (m *Mgr) unsubscribeAll() {
	for _, s := range m.subs {
		s.unsub()
	}
	m.subs = nil
}

// subscribe registers the manager's poke channel with a channel used in a
// receive guard, exactly once per channel, and stamps the subscription with
// the current guard-set generation.
func (m *Mgr) subscribe(ch *channel.Chan) {
	if m.subs == nil {
		return // manager exiting
	}
	if s, ok := m.subs[ch]; ok {
		s.gen = m.subGen
		return
	}
	m.subs[ch] = &subRec{unsub: ch.Subscribe(m.pokeCh), gen: m.subGen}
}

// sweepSubs unsubscribes channels the newly prepared guard set no longer
// uses, so long-lived managers do not accumulate stale poke sources.
func (m *Mgr) sweepSubs() {
	for ch, s := range m.subs {
		if s.gen != m.subGen {
			s.unsub()
			delete(m.subs, ch)
		}
	}
}

// Accepted is the manager's handle on a call it has accepted. Params holds
// the intercepted parameter prefix; the manager may inspect or replace the
// values before Start supplies them to the procedure.
type Accepted struct {
	m    *Mgr
	call *callRecord
	s    *slot  // the call's array element, captured at accept
	id   uint64 // captured call id; guards against recycled records (ABA)

	Entry  string
	Slot   int
	Params []Value
}

// CallID reports the accepted call's unique id. Ids are assigned in
// arrival order at the object, so they double as arrival sequence numbers
// (useful for FIFO scheduling policies via run-time priorities).
func (a *Accepted) CallID() uint64 { return a.id }

// Awaited is the manager's handle on a call whose body has terminated and
// been awaited. Results holds the intercepted result prefix; Hidden holds
// all hidden results; Err is non-nil if the body failed (panic or error).
type Awaited struct {
	m    *Mgr
	call *callRecord
	s    *slot  // the call's array element, captured at await
	id   uint64 // captured call id; guards against recycled records (ABA)

	Entry   string
	Slot    int
	Results []Value
	Hidden  []Value
	Err     error
}

// CallID reports the awaited call's unique id.
func (aw *Awaited) CallID() uint64 { return aw.id }

// liveHandle reports whether a manager handle (slot s, record cr, captured
// id) still denotes its original call in the wanted slot state. It reads
// only slot fields — written exclusively under o.mu — before touching the
// record: a slot still bound to cr proves the record belongs to this
// lifecycle (not mid-recycle on the mailbox fast path), which makes the
// cr.id ABA comparison safe.
func liveHandle(s *slot, cr *callRecord, id uint64, want slotState) bool {
	return s != nil && s.call == cr && s.state == want && cr.id == id
}

// Pending implements the #P notation: calls attached but not yet accepted
// plus calls waiting to be attached (§2.5.1).
func (m *Mgr) Pending(entryName string) int {
	o := m.obj
	if !m.inScan {
		o.mu.Lock()
		defer o.mu.Unlock()
		o.drainIntakeLocked()
	}
	e, ok := o.entries[entryName]
	if !ok {
		return 0
	}
	return e.pending()
}

// Active reports the number of started-but-unfinished executions of an entry.
func (m *Mgr) Active(entryName string) int {
	o := m.obj
	if !m.inScan {
		o.mu.Lock()
		defer o.mu.Unlock()
		o.drainIntakeLocked()
	}
	e, ok := o.entries[entryName]
	if !ok {
		return 0
	}
	return e.active
}

// ArrayLen reports the hidden-procedure-array size of an entry.
func (m *Mgr) ArrayLen(entryName string) int {
	e, ok := m.obj.entries[entryName]
	if !ok {
		return 0
	}
	return e.spec.Array
}

// Closed returns a channel closed when the object closes.
func (m *Mgr) Closed() <-chan struct{} { return m.obj.closeCh }

// resolveIntercepted maps an entry name to its runtime entry, validating
// that the manager may accept/await it and that slotIdx (or -1 for any) is
// within the hidden array.
func (m *Mgr) resolveIntercepted(entryName string, slotIdx int) (*entry, error) {
	e, ok := m.obj.entries[entryName]
	if !ok {
		return nil, fmt.Errorf("entry %q: %w", entryName, ErrUnknownEntry)
	}
	if !e.intercepted {
		return nil, fmt.Errorf("entry %q: %w", entryName, ErrNotIntercepted)
	}
	if slotIdx >= e.spec.Array {
		return nil, fmt.Errorf("entry %q has array size %d, guard names element %d: %w",
			entryName, e.spec.Array, slotIdx, ErrBadArity)
	}
	return e, nil
}

// Accept blocks until a call to the named entry is attached to some array
// element and accepts it ("accept P[i](...)"), returning the intercepted
// parameter prefix in the handle: Select(OnAccept(entryName, ...)).
func (m *Mgr) Accept(entryName string) (*Accepted, error) {
	return m.acceptOne(OnAccept(entryName, m.onAccept))
}

// AcceptSlot blocks until a call is attached to the specific element i and
// accepts it. Per §2.5, "if P[i] does not have a request attached and an
// accept P[i] is executed, it is delayed until a request is attached".
func (m *Mgr) AcceptSlot(entryName string, i int) (*Accepted, error) {
	if i < 0 {
		return nil, fmt.Errorf("entry %q: negative element %d: %w", entryName, i, ErrBadArity)
	}
	return m.acceptOne(OnAccept(entryName, m.onAccept).Slot(i))
}

func (m *Mgr) acceptOne(g Guard) (*Accepted, error) {
	if err := m.selectOne(g); err != nil {
		return nil, err
	}
	a := m.gotA
	m.gotA = nil
	return a, nil
}

// selectOne runs Select over the one-guard set m.one, replacing its guard
// with g only when g names another kind, entry or element.
func (m *Mgr) selectOne(g Guard) error {
	if o := &m.one[0]; o.kind != g.kind || o.entry != g.entry || o.slotIdx != g.slotIdx {
		*o = g
	}
	_, err := m.Select(m.one[:]...)
	return err
}

// Start begins executing an accepted call asynchronously with respect to
// the manager ("start P[i](...)"), supplying the (possibly modified)
// intercepted parameters and the hidden parameters (§2.8). The caller's
// remaining parameters are passed directly to the procedure. Ownership of
// the hidden values transfers to the runtime.
func (m *Mgr) Start(a *Accepted, hidden ...Value) error {
	o := m.obj
	o.seqPoint(SeqMgrStart, a.Entry, a.id)
	o.mu.Lock()
	defer o.mu.Unlock()
	regular, err := o.startParamsLocked("start", a, hidden)
	if err != nil {
		return err
	}
	if o.startBodyLocked(a.call, regular, hidden) && a.call == m.own {
		m.ownPosted = true
	}
	return nil
}

// startParamsLocked checks that a still denotes an accepted call and that
// the manager supplies the declared intercepted and hidden parameter counts,
// then merges the (possibly replaced) intercepted prefix with the caller's
// remaining parameters into the vector the body sees. op names the
// primitive in errors.
func (o *Object) startParamsLocked(op string, a *Accepted, hidden []Value) ([]Value, error) {
	cr := a.call
	if !liveHandle(a.s, cr, a.id, slotAccepted) {
		return nil, fmt.Errorf("%s %s.%s: call not in accepted state: %w", op, o.name, a.Entry, ErrBadState)
	}
	e := cr.entry
	if len(a.Params) != e.ipParams {
		return nil, fmt.Errorf("%s %s.%s: manager supplies %d params, intercepts clause says %d: %w",
			op, o.name, a.Entry, len(a.Params), e.ipParams, ErrBadArity)
	}
	if len(hidden) != e.spec.HiddenParams {
		return nil, fmt.Errorf("%s %s.%s: %d hidden params, declared %d: %w",
			op, o.name, a.Entry, len(hidden), e.spec.HiddenParams, ErrBadArity)
	}
	if e.ipParams == 0 {
		return cr.params, nil
	}
	regular := make([]Value, 0, e.spec.Params)
	regular = append(regular, a.Params...)
	return append(regular, cr.params[e.ipParams:]...), nil
}

// Await blocks until some started execution of the named entry is ready to
// terminate and awaits it ("await P[i](...)"): Select(OnAwait(entryName, ...)).
func (m *Mgr) Await(entryName string) (*Awaited, error) {
	return m.awaitOne(OnAwait(entryName, m.onAwait))
}

// AwaitCall blocks until the specific accepted-and-started call is ready to
// terminate and awaits it: a Select over an await guard on its element. If
// the element meanwhile holds another call, that call is awaited and
// AwaitCall reports ErrBadState.
func (m *Mgr) AwaitCall(a *Accepted) (*Awaited, error) {
	aw, err := m.awaitOne(OnAwait(a.Entry, m.onAwait).Slot(a.Slot))
	if err == nil && aw.id != a.id {
		return nil, fmt.Errorf("await %s.%s[%d]: slot reused by another call: %w",
			m.obj.name, a.Entry, a.Slot, ErrBadState)
	}
	return aw, err
}

func (m *Mgr) awaitOne(g Guard) (*Awaited, error) {
	if err := m.selectOne(g); err != nil {
		return nil, err
	}
	aw := m.gotAw
	m.gotAw = nil
	return aw, nil
}

// Finish endorses an awaited call's termination ("finish P[i](...)"): the
// supplied values replace the intercepted result prefix, the caller receives
// them together with the body's remaining results, and the array element is
// freed for the next waiting call. Finish never blocks (§2.3). Ownership of
// the result values transfers to the caller.
func (m *Mgr) Finish(aw *Awaited, results ...Value) error {
	o := m.obj
	o.seqPoint(SeqMgrFinish, aw.Entry, aw.id)
	o.mu.Lock()
	cr := aw.call
	if !liveHandle(aw.s, cr, aw.id, slotAwaited) {
		o.mu.Unlock()
		return fmt.Errorf("finish %s.%s: call not in awaited state: %w", o.name, aw.Entry, ErrBadState)
	}
	e := cr.entry
	if len(results) != e.ipResults {
		o.mu.Unlock()
		return fmt.Errorf("finish %s.%s: manager supplies %d results, intercepts clause says %d: %w",
			o.name, aw.Entry, len(results), e.ipResults, ErrBadArity)
	}
	if cr.bodyErr != nil {
		o.deliverLocked(cr, nil, cr.bodyErr)
	} else {
		final := cr.bodyResults
		if e.ipResults > 0 {
			final = make([]Value, 0, e.spec.Results)
			final = append(final, results...)
			final = append(final, cr.bodyResults[e.ipResults:]...)
		}
		o.deliverLocked(cr, final, nil)
	}
	e.active--
	o.record(e.spec.Name, cr.slotIndex(), cr.id, trace.Finished)
	o.freeSlotLocked(cr.slot)
	o.attachWaitingLocked(e)
	o.mu.Unlock()
	return nil
}

// FinishAccepted finishes an accepted call without starting it — request
// combining (§2.7). The manager must have intercepted all invocation
// parameters and must supply all results the caller expects. Ownership of
// the result values transfers to the caller.
func (m *Mgr) FinishAccepted(a *Accepted, results ...Value) error {
	o := m.obj
	o.seqPoint(SeqMgrCombine, a.Entry, a.id)
	o.mu.Lock()
	cr := a.call
	if !liveHandle(a.s, cr, a.id, slotAccepted) {
		o.mu.Unlock()
		return fmt.Errorf("finish %s.%s: call not in accepted state: %w", o.name, a.Entry, ErrBadState)
	}
	e := cr.entry
	if e.ipParams != e.spec.Params {
		o.mu.Unlock()
		return fmt.Errorf("combining %s.%s: manager intercepts %d of %d params; must intercept all: %w",
			o.name, a.Entry, e.ipParams, e.spec.Params, ErrBadState)
	}
	if len(results) != e.spec.Results {
		o.mu.Unlock()
		return fmt.Errorf("combining %s.%s: manager supplies %d results, entry declares %d: %w",
			o.name, a.Entry, len(results), e.spec.Results, ErrBadArity)
	}
	o.deliverLocked(cr, results, nil)
	e.combined++
	o.record(e.spec.Name, cr.slotIndex(), cr.id, trace.Combined)
	o.freeSlotLocked(cr.slot)
	o.attachWaitingLocked(e)
	o.mu.Unlock()
	return nil
}

// Execute runs an accepted call to completion in exclusion with respect to
// the manager: "execute P(params, results)" is equivalent to
// "start P(params); await P(results); finish P(results)" (§2.3). Because
// the exclusion holds the manager for the whole sequence — it could do
// nothing concurrently anyway — the body runs inline on the process holding
// the manager role (a caller's, when it runs a parked Loop's step): no pool
// handoff, no wakeup round trips, observably the same
// schedule at roughly half the per-call cost. The intercepted results pass
// through unchanged; the Awaited handle is returned for monitoring.
func (m *Mgr) Execute(a *Accepted, hidden ...Value) (*Awaited, error) {
	o := m.obj
	o.seqPoint(SeqMgrExecute, a.Entry, a.id)
	o.mu.Lock()
	regular, err := o.startParamsLocked("execute", a, hidden)
	if err != nil {
		o.mu.Unlock()
		return nil, err
	}
	cr, s := a.call, a.s
	e := cr.entry
	o.markStartedLocked(cr, regular, hidden)
	o.mu.Unlock()

	o.runBodyThenLock(cr)
	o.record(e.spec.Name, s.index, cr.id, trace.Ready)
	o.record(e.spec.Name, s.index, cr.id, trace.Awaited)
	aw := &Awaited{m: m, call: cr, s: s, id: cr.id, Entry: e.spec.Name, Slot: s.index}
	cr.fillAwaited(aw, e.ipResults)
	o.terminateLocked(cr)
	o.mu.Unlock()
	return aw, nil
}

// Receive blocks until a message is available on the channel and returns
// it ("receive C(...)" outside a guard position). It aborts with ErrClosed
// when the object closes.
func (m *Mgr) Receive(ch *channel.Chan) (channel.Message, error) {
	var out channel.Message
	g := OnReceive(ch, func(msg channel.Message) { out = msg })
	if _, err := m.Select(g); err != nil {
		return nil, err
	}
	return out, nil
}

// Loop repeatedly runs Select over the guards until the object closes,
// implementing the paper's "loop G1 => S1 or ... or Gn => Sn end loop".
// Loop runs the same guards again after every action, so any process can
// run its next iteration: when nothing is eligible and no call waits, it
// lends the manager role to the next submitting caller (lendLocked).
// Otherwise it blocks as Select does:
//   - while calls wait, ineligible, the next change is followed by a scan
//     over all of them, which is cheapest on the goroutine that ran the
//     last one (lending there cost a 1 000-call scheduler 4–16 % of its
//     throughput);
//   - a set with a receive guard: a channel send pokes pokeCh, which only
//     a blocked manager hears;
//   - a holder whose action calls Loop: only the manager goroutine lends;
//   - a process on one processor: a caller that ran the step would go
//     straight on to what follows its call before the other callers'
//     calls reach the object, and a journaled object then pays an fsync
//     per call (the fabric ledger's appends: 0.03 fsyncs each → 0.5).
func (m *Mgr) Loop(guards ...Guard) error {
	for {
		i, err := m.loopStep(guards)
		switch {
		case err != nil:
			return err
		case i >= 0:
		case !m.obj.oneProc && len(m.subs) == 0 && m.role.Load() == roleMgr && m.noneWaiting():
			m.lendLocked(guards)
		default:
			if err := m.blockLocked(); err != nil {
				return err
			}
		}
	}
}

// noneWaiting reports, with o.mu held, whether no call waits to be accepted
// on an entry the current guard set watches (a cond guard's set watches
// every entry and lists none).
func (m *Mgr) noneWaiting() bool {
	for _, e := range m.lastWatch.entries {
		if e.pending() > 0 {
			return false
		}
	}
	return true
}
