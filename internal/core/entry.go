package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Value is one ALPS parameter, result, or message value.
type Value = any

// Body is the implementation of an entry (or local) procedure. It runs on a
// lightweight process from the object's pool, asynchronously with respect to
// the manager. Results are produced with inv.Return (and inv.ReturnHidden);
// a non-nil error fails the call. A panic inside the body is recovered and
// surfaces to the caller as a *BodyError.
type Body func(inv *Invocation) error

// EntrySpec declares one procedure of an object's implementation part.
//
// Array > 1 declares a hidden procedure array (paper §2.5): the definition
// part exports a single procedure name while the implementation attaches up
// to Array concurrent calls, each to its own element. HiddenParams and
// HiddenResults declare the extra values exchanged only between the manager
// and the body (paper §2.8); they are invisible to callers.
type EntrySpec struct {
	Name          string
	Params        int // regular invocation parameters
	Results       int // regular results
	Array         int // hidden-procedure-array size; 0 or 1 means plain
	HiddenParams  int
	HiddenResults int
	Local         bool // local procedure: callable only from inside the object
	Body          Body

	// MaxPending bounds this entry's pending calls (#P: waiting plus
	// attached-but-unaccepted). 0 inherits ObjectOptions.MaxPending; either
	// way 0 means unbounded. Shed selects the policy applied when the bound
	// is full (only meaningful with a non-zero MaxPending here; an inherited
	// object-level bound uses ObjectOptions.Shed).
	MaxPending int
	Shed       ShedPolicy
}

func (s EntrySpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("%w: entry with empty name", ErrBadState)
	}
	if s.Body == nil {
		return fmt.Errorf("%w: entry %q has no body", ErrBadState, s.Name)
	}
	if s.Params < 0 || s.Results < 0 || s.HiddenParams < 0 || s.HiddenResults < 0 {
		return fmt.Errorf("%w: entry %q has negative arity", ErrBadArity, s.Name)
	}
	if s.Array < 0 {
		return fmt.Errorf("%w: entry %q has negative array size", ErrBadArity, s.Name)
	}
	if s.MaxPending < 0 {
		return fmt.Errorf("%w: entry %q has negative MaxPending", ErrBadState, s.Name)
	}
	return nil
}

// InterceptSpec is one element of a manager's intercepts clause
// (paper §2.3, §2.6): the named procedure's calls are directed to the
// manager, which receives the first Params invocation parameters at accept
// and supplies the first Results results at finish.
type InterceptSpec struct {
	Entry   string
	Params  int // initial subsequence of invocation params given to the manager
	Results int // initial subsequence of results supplied by the manager
}

// Intercept lists an entry in the intercepts clause without parameter or
// result interception ("intercepts P").
func Intercept(entry string) InterceptSpec {
	return InterceptSpec{Entry: entry}
}

// InterceptPR lists an entry with interception of the first params
// invocation parameters and first results results
// ("intercepts P(params; results)").
func InterceptPR(entry string, params, results int) InterceptSpec {
	return InterceptSpec{Entry: entry, Params: params, Results: results}
}

type slotState int

const (
	slotFree     slotState = iota + 1
	slotAttached           // call bound to this element, not yet accepted
	slotAccepted           // manager accepted, not yet started
	slotStarted            // body running
	slotReady              // body done, awaiting the manager's await
	slotAwaited            // awaited, awaiting the manager's finish
)

func (s slotState) String() string {
	switch s {
	case slotFree:
		return "free"
	case slotAttached:
		return "attached"
	case slotAccepted:
		return "accepted"
	case slotStarted:
		return "started"
	case slotReady:
		return "ready"
	case slotAwaited:
		return "awaited"
	default:
		return fmt.Sprintf("slotState(%d)", int(s))
	}
}

// slot is one element of a hidden procedure array.
type slot struct {
	index int
	state slotState
	call  *callRecord

	// listPos is this slot's position in the entry's attached or ready
	// index, -1 when in neither. Exactly one index can contain a slot at a
	// time (attached vs ready are disjoint states).
	listPos int
}

// pend is one record of an entry's dense pending index: everything the
// guard scan reads about a candidate, copied next to its neighbours so a
// scan walks sequential memory instead of chasing *slot -> *callRecord for
// each one. A record is written once, at enlist; the slot's call (and so
// its id) cannot change while the slot stays listed.
type pend struct {
	s    *slot
	call *callRecord
	id   uint64 // call.id
	idx  int    // s.index
}

// entry is the runtime representation of a procedure.
//
// The attached and ready indexes address the implementation issue of §3: "a
// hidden procedure array P[1..N] may have only a small number of requests
// attached to it on the average and it is wasteful to implement a guarded
// command of the form (i:1..N) accept P[i]" by polling all N elements.
// Guard evaluation iterates only the slots that can actually fire.
type entry struct {
	spec        EntrySpec
	intercepted bool
	ipParams    int
	ipResults   int

	// fastIntake marks entries whose submissions take the mailbox fast
	// path (intercepted, no admission bound). Resolved at New, immutable.
	fastIntake bool

	slots     []*slot
	attached  []pend        // slots in state slotAttached (accept candidates)
	ready     []pend        // slots in state slotReady (await candidates)
	waitq     []*callRecord // calls waiting for a free element
	attachRot int           // rotating scan offset for arbitrary slot choice
	active    int           // bodies started and not yet finished

	// Admission control (resolved at New from EntrySpec/ObjectOptions).
	maxPending int             // bound on pending(); 0 = unbounded
	shedPolicy ShedPolicy      // policy when maxPending is full
	spaceq     []chan struct{} // callers blocked by ShedBlock, FIFO

	// Lifetime counters (under the object lock).
	calls     uint64 // invocations that passed validation
	completed uint64 // calls that returned results to their caller
	combined  uint64 // calls answered without a body execution (§2.7)
	failed    uint64 // calls that returned an error
	shed      uint64 // calls rejected by admission control (ErrOverload)
}

// EntryStats is a snapshot of one entry's lifetime counters.
type EntryStats struct {
	Calls     uint64 // invocations accepted by the runtime
	Completed uint64 // calls that returned results
	Combined  uint64 // calls answered by combining (no body execution)
	Failed    uint64 // calls that returned an error (body error, close, cancel)
	Shed      uint64 // calls rejected by admission control (ErrOverload)
	Pending   int    // current #P (attached + waiting)
	Active    int    // bodies started and not finished
}

// enlist appends s (with its bound call) to list and records its position.
func enlist(list []pend, s *slot) []pend {
	s.listPos = len(list)
	return append(list, pend{s: s, call: s.call, id: s.call.id, idx: s.index})
}

// delist removes s from list by swapping in the last record.
func delist(list []pend, s *slot) []pend {
	i := s.listPos
	last := len(list) - 1
	list[i] = list[last]
	list[i].s.listPos = i
	list[last] = pend{}
	s.listPos = -1
	return list[:last]
}

func newEntry(spec EntrySpec) *entry {
	n := spec.Array
	if n < 1 {
		n = 1
	}
	spec.Array = n
	e := &entry{spec: spec, slots: make([]*slot, n)}
	for i := range e.slots {
		e.slots[i] = &slot{index: i, state: slotFree, listPos: -1}
	}
	return e
}

// pending implements the #P count (paper §2.5.1): calls attached but not yet
// accepted plus calls waiting to be attached.
func (e *entry) pending() int {
	return len(e.waitq) + len(e.attached)
}

// callResult is what a call's caller receives on resultCh: the outcome, or
// (err == errRunBody) its started body to run (startBodyLocked).
type callResult struct {
	results []Value
	err     error
}

// errRunBody marks the callResult a caller-run start posts in place of an
// outcome. It never reaches a caller's return values.
var errRunBody = errors.New("alps: started body posted to its caller")

// callRecord tracks one invocation through its lifecycle.
//
// Records are recycled through the object's crPool. The protocol (see
// docs/PERFORMANCE.md):
//
//   - refs starts at 2: one reference for the caller blocked on resultCh,
//     one for the runtime (held until the record leaves waitq/slots for
//     good). The side that drops refs to 0 returns the record to the pool.
//   - acquireCall resets every field under either o.mu (slow path) or
//     intakeMu (mailbox fast path); afterwards fields are written only
//     under o.mu, by the record's current owner lifecycle. Fast-path
//     writes are published to the manager by the intakeMu release/acquire
//     pair around the drain, so every o.mu-side access is ordered after
//     them. A stale manager handle from a previous lifecycle must not
//     read the record directly (a fast-path acquire may be rewriting it):
//     it validates through its captured slot first — slot fields are
//     written only under o.mu — and only a slot still bound to the
//     handle's record (which therefore cannot be mid-acquire) licenses
//     the cr.id comparison that detects recycling (ids are unique, so an
//     ABA match is impossible).
//   - resultCh is reused across lifecycles. It is provably empty at
//     recycle time: deliverLocked sends at most once per lifecycle
//     (delivered flag, under the lock), the caller always performs the
//     matching receive before releasing its reference, and a successful
//     withdraw marks delivered before any send can happen. A caller-run
//     start's posting is the one other send; the caller takes it off
//     before it runs the body, so the outcome, sent after the body, always
//     finds the channel empty.
type callRecord struct {
	id        uint64
	entry     *entry
	params    []Value // caller-supplied regular parameters (ownership transferred)
	resultCh  chan callResult
	delivered bool
	slot      *slot // nil until attached

	mgrParams     []Value // intercepted prefix handed to the manager at accept
	hiddenParams  []Value // supplied by the manager at start
	bodyResults   []Value // regular results produced by the body
	hiddenResults []Value // hidden results produced by the body
	bodyErr       error

	refs  atomic.Int32
	inv   Invocation // body-side view, embedded to avoid a per-start allocation
	runFn func()     // pre-bound o.runBody(cr) thunk, created once per record

	// lsn is the journal position of this call's outcome record (0 when
	// the object has no journal, the outcome was not journaled, or the
	// journal defers the sync to the rpc acknowledgement). Written in
	// deliverLocked, read by the awaiter after the resultCh receive.
	lsn uint64

	// arrived is the submission timestamp, stamped only when the stall
	// watchdog is enabled (a time.Now() per call is measurable on the hot
	// path and useless otherwise).
	arrived time.Time
}

func (cr *callRecord) slotIndex() int {
	if cr.slot == nil {
		return -1
	}
	return cr.slot.index
}
