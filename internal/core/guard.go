package core

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/trace"
)

// Guard is one guarded alternative of a select or loop statement (§2.4).
// Guards are built with OnAccept, OnAwait, OnReceive and OnCond, and refined
// with When (acceptance conditions, evaluated against the values that would
// be received) and Pri (run-time priorities; among eligible alternatives the
// smallest value is selected).
//
// Guards must not be mutated between Select calls that reuse the same slice
// (as Loop does): Select caches validation and entry resolution per slice.
type Guard struct {
	kind guardKind

	entry   string
	slotIdx int // -1 = any element

	ch *channel.Chan

	whenAccept func(*Accepted) bool
	whenAwait  func(*Awaited) bool
	whenMsg    func(channel.Message) bool
	cond       func() bool

	priAccept func(*Accepted) int
	priAwait  func(*Awaited) int
	priMsg    func(channel.Message) int
	priConst  int
	hasPri    bool

	actAccept func(*Accepted)
	actAwait  func(*Awaited)
	actMsg    func(channel.Message)
	actCond   func()

	// Filled in by Mgr.prepare (role holder only): the resolved
	// entry for accept/await guards and the preparation stamp that lets
	// repeated Selects over the same slice skip validation entirely.
	res  *entry
	prep uint64
}

type guardKind int

const (
	guardAccept guardKind = iota + 1
	guardAwait
	guardReceive
	guardCond
)

// OnAccept builds an "accept P[i](...) => action" guard ranging over all
// elements of P's hidden procedure array ("(i:1..N) accept P[i]").
func OnAccept(entryName string, action func(*Accepted)) Guard {
	return Guard{kind: guardAccept, entry: entryName, slotIdx: -1, actAccept: action}
}

// OnAwait builds an "await P[i](...) => action" guard ranging over all
// started executions of P that are ready to terminate.
func OnAwait(entryName string, action func(*Awaited)) Guard {
	return Guard{kind: guardAwait, entry: entryName, slotIdx: -1, actAwait: action}
}

// OnReceive builds a "receive C(...) => action" guard.
func OnReceive(ch *channel.Chan, action func(channel.Message)) Guard {
	return Guard{kind: guardReceive, ch: ch, actMsg: action}
}

// OnCond builds a pure boolean "when B => action" guard.
func OnCond(cond func() bool, action func()) Guard {
	return Guard{kind: guardCond, cond: cond, actCond: action}
}

// Slot restricts an accept or await guard to one specific array element.
func (g Guard) Slot(i int) Guard {
	g.slotIdx = i
	return g
}

// When attaches an acceptance condition to an accept guard; the predicate
// sees the intercepted parameters the manager would receive (§2.4). The
// handle passed to the predicate is a scratch value valid only for the
// duration of the call: predicates must not retain it or mutate its Params.
func (g Guard) When(pred func(*Accepted) bool) Guard {
	g.whenAccept = pred
	return g
}

// WhenAwait attaches an acceptance condition to an await guard. The handle
// is scratch, as with When.
func (g Guard) WhenAwait(pred func(*Awaited) bool) Guard {
	g.whenAwait = pred
	return g
}

// WhenMsg attaches an acceptance condition to a receive guard; the predicate
// sees the message that would be received.
func (g Guard) WhenMsg(pred func(channel.Message) bool) Guard {
	g.whenMsg = pred
	return g
}

// Pri attaches a constant run-time priority ("pri E"); among eligible
// alternatives the smallest value is selected. Guards without Pri default
// to priority 0.
func (g Guard) Pri(p int) Guard {
	g.priConst = p
	g.hasPri = true
	return g
}

// PriAccept computes the priority from the accepted call's intercepted
// parameters (run-time evaluable priorities, §2.4). The handle is scratch,
// as with When.
func (g Guard) PriAccept(f func(*Accepted) int) Guard {
	g.priAccept = f
	g.hasPri = true
	return g
}

// PriAwait computes the priority from the awaited call's results. The
// handle is scratch, as with When.
func (g Guard) PriAwait(f func(*Awaited) int) Guard {
	g.priAwait = f
	g.hasPri = true
	return g
}

// PriMsg computes the priority from the message that would be received.
func (g Guard) PriMsg(f func(channel.Message) int) Guard {
	g.priMsg = f
	g.hasPri = true
	return g
}

// candidate is one eligible (guard, datum) pair found during a scan. It is
// a plain value — no handles, no closures — so scanning allocates nothing;
// the winning candidate is materialized at commit time. s is the array
// element of an accept or await alternative, nil for receive and cond.
type candidate struct {
	guardIdx int
	s        *slot
}

// tieSet is the scan's running answer: the smallest pri seen so far and the
// alternatives tied at it, in scan order. Alternatives that lose are never
// stored; a strictly smaller pri resets the set.
type tieSet struct {
	min int
	c   []candidate
}

// offer considers one eligible alternative with priority pri.
func (t *tieSet) offer(guardIdx int, s *slot, pri int) {
	if len(t.c) > 0 {
		if pri > t.min {
			return
		}
		if pri < t.min {
			t.c = t.c[:0]
		}
	}
	t.min = pri
	t.c = append(t.c, candidate{guardIdx: guardIdx, s: s})
}

// offerAll considers every record of list at one shared priority: the
// alternatives of a guard with neither a condition nor a computed priority.
func (t *tieSet) offerAll(guardIdx int, list []pend, pri int) {
	if len(t.c) > 0 && pri > t.min {
		return
	}
	for i := range list {
		t.offer(guardIdx, list[i].s, pri)
	}
}

// pick chooses among the tied alternatives by rotation: successive
// selections over an unchanged tie set visit every member, so the selector
// starves none (docs/SEMANTICS.md §2.3).
func (t *tieSet) pick(rot int) candidate {
	return t.c[rot%len(t.c)]
}

// Select evaluates the guards and executes exactly one eligible
// alternative, blocking until one becomes eligible. It returns the index of
// the selected guard, or ErrClosed once the object has closed. Semantics
// follow CSP's alternative command with SR-style acceptance conditions and
// priorities: each array element (or buffered message) is a separate
// alternative; the acceptance condition is evaluated against the values that
// would be received; the smallest pri value among eligible alternatives
// wins, with rotating tie-breaks for fairness.
//
// A bare Select never lends the manager role (Loop does): user code follows
// it, and only the manager function's process may run that.
func (m *Mgr) Select(guards ...Guard) (int, error) {
	if err := m.prepare(guards); err != nil {
		return -1, err
	}
	for {
		i, err := m.step(guards)
		if i >= 0 || err != nil {
			return i, err
		}
		if err := m.blockLocked(); err != nil {
			return -1, err
		}
	}
}

// loopStep is one iteration of Loop: prepare the guards (a cache hit but
// for the first, or after an action selected over another set), then step.
func (m *Mgr) loopStep(guards []Guard) (int, error) {
	if err := m.prepare(guards); err != nil {
		return -1, err
	}
	return m.step(guards)
}

// step is the one selection path, run by whoever holds the manager role:
// Select, Loop, and a caller running a parked Loop's iterations (serve).
// It drains the intake, scans, commits the winning alternative and runs its
// action, returning the guard's index. With nothing eligible it returns -1
// with o.mu still held, for the caller to block, lend or give the role back.
func (m *Mgr) step(guards []Guard) (int, error) {
	o := m.obj
	for {
		o.seqPoint(SeqMgrScan, "", 0)
		m.dirty.Store(0)
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			return -1, ErrClosed
		}
		o.drainIntakeLocked()
		m.inScan = true
		m.scanLocked(guards)
		m.inScan = false
		if len(m.ties.c) == 0 {
			return -1, nil
		}
		c := m.ties.pick(m.rot)
		m.rot++
		g := &guards[c.guardIdx]
		switch g.kind {
		case guardAccept:
			a := m.commitAcceptLocked(g.res, c.s)
			o.mu.Unlock()
			o.seqPoint(SeqMgrAccept, a.Entry, a.id)
			g.actAccept(a)
		case guardAwait:
			aw := m.commitAwaitLocked(g.res, c.s)
			o.mu.Unlock()
			o.seqPoint(SeqMgrAwait, aw.Entry, aw.id)
			g.actAwait(aw)
		case guardReceive:
			// The message was only peeked during the scan; in the rare case
			// another receiver consumed it in between, TakeWhere selects the
			// next message satisfying the same condition, or we rescan.
			m.inScan = true // whenMsg runs again, still under o.mu
			msg, ok := g.ch.TakeWhere(g.whenMsg)
			m.inScan = false
			o.mu.Unlock()
			if !ok {
				continue
			}
			g.actMsg(msg)
		default: // guardCond
			o.mu.Unlock()
			g.actCond()
		}
		return c.guardIdx, nil
	}
}

// abandonScan releases o.mu after a guard's condition or pri function
// panicked mid-scan, where the scan holds it (inScan). The panic's
// recoverers (runManagerOnce, serve) call it, so the supervisor can take
// the lock to poison or restart, and the scan itself carries no defer.
func (m *Mgr) abandonScan() {
	if m.inScan {
		m.inScan = false
		m.obj.mu.Unlock()
	}
}

// prepare validates the guard set, resolves entries, (re)subscribes receive
// channels, and publishes the watch set wakers consult for poke elision.
// Loop passes the identical slice on every iteration, so the fully prepared
// case is recognized by (first, len, stamp) and skipped.
func (m *Mgr) prepare(guards []Guard) error {
	if len(guards) == 0 {
		return fmt.Errorf("select with no guards: %w", ErrBadState)
	}
	if m.lastFirst == &guards[0] && m.lastLen == len(guards) {
		hit := true
		for i := range guards {
			if guards[i].prep != m.lastPrep {
				hit = false
				break
			}
		}
		if hit {
			// A fast-path primitive (Accept/Await/AwaitCall) may have
			// narrowed the published watch set since the last Select over
			// this slice; restore it.
			if ws := m.lastWatch; ws != nil && m.watch.Load() != ws {
				m.watch.Store(ws)
			}
			return nil
		}
	}
	m.prepSeq++
	m.subGen++
	watchAll := false
	m.watchScratch = m.watchScratch[:0]
	for i := range guards {
		g := &guards[i]
		switch g.kind {
		case guardAccept, guardAwait:
			e, err := m.resolveIntercepted(g.entry, g.slotIdx)
			if err != nil {
				return fmt.Errorf("select guard %d: %w", i, err)
			}
			g.res = e
			if !entryIn(m.watchScratch, e) {
				m.watchScratch = append(m.watchScratch, e)
			}
		case guardReceive:
			if g.ch == nil {
				return fmt.Errorf("select guard %d: receive guard with nil channel: %w", i, ErrBadState)
			}
			m.subscribe(g.ch)
		case guardCond:
			if g.cond == nil {
				return fmt.Errorf("select guard %d: when guard with nil condition: %w", i, ErrBadState)
			}
			watchAll = true
		default:
			return fmt.Errorf("select guard %d: malformed guard: %w", i, ErrBadState)
		}
		g.prep = m.prepSeq
	}
	m.sweepSubs()
	ws := watchAllSet
	if !watchAll {
		ws = &watchSet{entries: append([]*entry(nil), m.watchScratch...)}
	}
	m.watch.Store(ws)
	m.lastWatch = ws
	m.lastFirst, m.lastLen, m.lastPrep = &guards[0], len(guards), m.prepSeq
	return nil
}

func entryIn(list []*entry, e *entry) bool {
	for _, x := range list {
		if x == e {
			return true
		}
	}
	return false
}

// scanLocked is the guard-selection kernel: one pass over the guards, in
// order, that leaves in m.ties the eligible alternatives tied at the
// smallest pri. Called with o.mu held, by the role holder.
//
// The evaluation contract (docs/SEMANTICS.md §2.4): for every guard and every
// datum it ranges over — each attached call of an accept guard, each ready
// call of an await guard, the frontmost matching message of a receive guard
// — the acceptance condition runs exactly once per scan, and the pri
// function exactly once iff the condition held.
//
// Accept and await guards walk the entry's dense pending index (a Slot(i)
// guard walks the one-record window at the element's position), evaluating
// against the manager's scratch handle. The handle's per-guard fields are
// set once per guard, a guard with neither condition nor computed priority
// never touches the handle, and nothing is stored or heap-allocated for an
// alternative that does not tie the minimum.
func (m *Mgr) scanLocked(guards []Guard) {
	t := &m.ties
	t.c = t.c[:0]
	for gi := range guards {
		g := &guards[gi]
		switch g.kind {
		case guardAccept:
			e := g.res
			list := g.window(e.attached, slotAttached)
			when, pri := g.whenAccept, g.priAccept
			if when == nil && pri == nil {
				t.offerAll(gi, list, g.priConst)
				continue
			}
			// The handle's Params alias the call's parameters (capped, so
			// appends cannot clobber the suffix); predicates must treat the
			// handle as read-only and not retain it. It carries no call or
			// slot — it names a datum, not an accepted call, and the manager
			// primitives are off limits inside a predicate anyway (the scan
			// holds o.mu) — so the inner loop stores two integers and no
			// pointers.
			a := &m.scratchA
			a.m, a.Entry, a.Params = m, e.spec.Name, nil
			ip := e.ipParams
			for i := range list {
				p := &list[i]
				a.id, a.Slot = p.id, p.idx
				if ip > 0 {
					a.Params = p.call.params[:ip:ip]
				}
				if when != nil && !when(a) {
					continue
				}
				v := g.priConst
				if pri != nil {
					v = pri(a)
				}
				t.offer(gi, p.s, v)
			}
		case guardAwait:
			e := g.res
			list := g.window(e.ready, slotReady)
			when, pri := g.whenAwait, g.priAwait
			if when == nil && pri == nil {
				t.offerAll(gi, list, g.priConst)
				continue
			}
			aw := &m.scratchAw
			aw.m, aw.Entry = m, e.spec.Name
			for i := range list {
				p := &list[i]
				aw.id, aw.Slot = p.id, p.idx
				p.call.fillAwaited(aw, e.ipResults)
				if when != nil && !when(aw) {
					continue
				}
				v := g.priConst
				if pri != nil {
					v = pri(aw)
				}
				t.offer(gi, p.s, v)
			}
		case guardReceive:
			msg, ok := g.ch.PeekWhere(g.whenMsg)
			if !ok {
				continue
			}
			// Priority is computed from the peeked message (§2.4: one
			// candidate per channel — the frontmost eligible message).
			v := g.priConst
			if g.priMsg != nil {
				v = g.priMsg(msg)
			}
			t.offer(gi, nil, v)
		case guardCond:
			if g.cond() {
				t.offer(gi, nil, g.priConst)
			}
		}
	}
}

// window returns the records of index (the resolved entry's attached or
// ready index, whose slots are in state want) that the guard ranges over:
// all of them, or for a Slot(i) guard the one-record window at element i's
// position — empty while that element is in another state.
func (g *Guard) window(index []pend, want slotState) []pend {
	if g.slotIdx < 0 {
		return index
	}
	s := g.res.slots[g.slotIdx]
	if s.state != want {
		return nil
	}
	return index[s.listPos : s.listPos+1]
}

// fillAwaited sets the handle fields that describe the body's outcome.
// Results and Hidden alias the body's returned slices (body ownership ended
// at return; the manager is their only consumer); a failed body presents
// zeroed intercepted results.
func (cr *callRecord) fillAwaited(aw *Awaited, ipResults int) {
	aw.Hidden = cr.hiddenResults
	aw.Err = cr.bodyErr
	switch {
	case cr.bodyErr == nil:
		aw.Results = cr.bodyResults[:ipResults:ipResults]
	case ipResults > 0:
		aw.Results = make([]Value, ipResults)
	default:
		aw.Results = nil
	}
}

// commitAcceptLocked performs the accept state change for the selected slot
// and materializes the manager's handle. The intercepted parameter prefix
// is copied: the manager may replace values through the handle, and the
// caller's slice must stay untouched.
func (m *Mgr) commitAcceptLocked(e *entry, s *slot) *Accepted {
	o := m.obj
	cr := s.call
	e.attached = delist(e.attached, s)
	s.state = slotAccepted
	a := &Accepted{
		m:      m,
		call:   cr,
		s:      s,
		id:     cr.id,
		Entry:  e.spec.Name,
		Slot:   s.index,
		Params: append([]Value(nil), cr.params[:e.ipParams]...),
	}
	cr.mgrParams = a.Params
	o.record(e.spec.Name, s.index, cr.id, trace.Accepted)
	o.notifySpaceLocked(e) // acceptance shrinks the pending set (#P)
	return a
}

// commitAwaitLocked performs the await state change for the selected slot
// and materializes the manager's handle.
func (m *Mgr) commitAwaitLocked(e *entry, s *slot) *Awaited {
	o := m.obj
	cr := s.call
	e.ready = delist(e.ready, s)
	s.state = slotAwaited
	aw := &Awaited{m: m, call: cr, s: s, id: cr.id, Entry: e.spec.Name, Slot: s.index}
	cr.fillAwaited(aw, e.ipResults)
	o.record(e.spec.Name, s.index, cr.id, trace.Awaited)
	return aw
}
