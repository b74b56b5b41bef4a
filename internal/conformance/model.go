package conformance

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// EntryMeta is the static declaration the model needs about one entry:
// arities, hidden-array width and the manager's intercepts clause. It is
// the model-side mirror of core.EntrySpec + core.InterceptSpec.
type EntryMeta struct {
	Name          string
	Params        int
	Results       int
	Array         int
	HiddenParams  int
	HiddenResults int
	Intercepted   bool
	IPParams      int
	IPResults     int
}

// MetaFor extracts the model metadata for every entry of a live object.
func MetaFor(o *core.Object) map[string]EntryMeta {
	out := make(map[string]EntryMeta)
	for _, name := range o.Entries() {
		spec, ok := o.EntryInfo(name)
		if !ok {
			continue
		}
		ic, ipp, ipr := o.EntryIntercepted(name)
		out[name] = EntryMeta{
			Name:          name,
			Params:        spec.Params,
			Results:       spec.Results,
			Array:         spec.Array,
			HiddenParams:  spec.HiddenParams,
			HiddenResults: spec.HiddenResults,
			Intercepted:   ic,
			IPParams:      ipp,
			IPResults:     ipr,
		}
	}
	return out
}

// Divergence is one disagreement between the reference model and an
// observed trace: the implementation performed a transition the paper's
// semantics do not allow.
type Divergence struct {
	Rule   string // stable identifier, e.g. "slot-exclusion"
	Entry  string
	CallID uint64
	Index  int // index into the event stream; -1 for end-of-run checks
	Detail string
}

// String implements fmt.Stringer.
func (d Divergence) String() string {
	at := "end-of-run"
	if d.Index >= 0 {
		at = fmt.Sprintf("event %d", d.Index)
	}
	return fmt.Sprintf("[%s] %s.%d at %s: %s", d.Rule, d.Entry, d.CallID, at, d.Detail)
}

// callState is the model's view of one call's position in the paper's
// lifecycle (§2.3, §2.5): the slot state machine
// free→attached→accepted→started→ready→awaited plus the pre-attachment
// wait queue and the terminal outcomes.
type callState int

const (
	csArrived callState = iota + 1
	csAttached
	csAccepted
	csStarted
	csReady
	csAwaited
	csTerminal
)

func (s callState) String() string {
	switch s {
	case csArrived:
		return "arrived"
	case csAttached:
		return "attached"
	case csAccepted:
		return "accepted"
	case csStarted:
		return "started"
	case csReady:
		return "ready"
	case csAwaited:
		return "awaited"
	case csTerminal:
		return "terminal"
	default:
		return fmt.Sprintf("callState(%d)", int(s))
	}
}

// callInfo tracks one call through the model.
type callInfo struct {
	entry       string
	state       callState
	slot        int // -1 until attached
	everStarted bool
	terminal    trace.Kind
}

// entryModel tracks per-entry model state: the arrival order (for the
// FIFO-attachment rule) and hidden-array occupancy (for exclusion).
type entryModel struct {
	arrivals []uint64       // ids arrived and not yet attached, FIFO
	slots    map[int]uint64 // array element -> occupying call id
}

// checker interprets a trace stream against the reference model.
type checker struct {
	meta     map[string]EntryMeta
	calls    map[uint64]*callInfo
	entries  map[string]*entryModel
	closing  bool // Closed marker seen
	poisoned bool // Poisoned marker seen
	requeues int  // restart-requeue transitions observed
	restarts int  // MgrRestart markers observed
	divs     []Divergence
}

// Check replays a trace event stream against the reference model and
// reports every divergence, including end-of-stream completeness checks
// (a closed object must leave no live call behind).
//
// meta must describe every entry appearing in the stream. The model
// understands the close/poison relaxations: after the Closed or Poisoned
// marker a call may jump straight to Failed from any live state, and a
// started body of an intercepted entry may record Finished without the
// manager's await (the manager is gone; the runtime terminates directly).
func Check(events []trace.Event, meta map[string]EntryMeta) []Divergence {
	c := &checker{
		meta:    meta,
		calls:   make(map[uint64]*callInfo),
		entries: make(map[string]*entryModel),
	}
	for i, ev := range events {
		c.step(i, ev)
	}
	c.finish()
	return c.divs
}

func (c *checker) fail(idx int, ev trace.Event, rule, format string, args ...any) {
	c.divs = append(c.divs, Divergence{
		Rule:   rule,
		Entry:  ev.Entry,
		CallID: ev.CallID,
		Index:  idx,
		Detail: fmt.Sprintf(format, args...),
	})
}

func (c *checker) entryModelFor(name string) *entryModel {
	em := c.entries[name]
	if em == nil {
		em = &entryModel{slots: make(map[int]uint64)}
		c.entries[name] = em
	}
	return em
}

// terminalKind reports whether k ends a call's lifecycle.
func terminalKind(k trace.Kind) bool {
	switch k {
	case trace.Finished, trace.Combined, trace.Failed, trace.Shed:
		return true
	}
	return false
}

func (c *checker) step(idx int, ev trace.Event) {
	switch ev.Kind {
	case trace.Closed:
		c.closing = true
		return
	case trace.Poisoned:
		c.poisoned = true
		return
	case trace.MgrRestart:
		// The restart marker reuses CallID as a restart ordinal; it is not
		// a call event. Requeue transitions are validated via c.requeues.
		c.restarts++
		return
	case trace.Stalled:
		return // informational; no lifecycle transition
	}

	relaxed := c.closing || c.poisoned
	m, haveMeta := c.meta[ev.Entry]
	if !haveMeta && ev.Kind != trace.Shed {
		c.fail(idx, ev, "unknown-entry", "event %v for undeclared entry %q", ev.Kind, ev.Entry)
		return
	}
	ci := c.calls[ev.CallID]

	switch ev.Kind {
	case trace.Arrived:
		if ci != nil {
			c.fail(idx, ev, "duplicate-arrival", "call already %v", ci.state)
			return
		}
		c.calls[ev.CallID] = &callInfo{entry: ev.Entry, state: csArrived, slot: -1}
		em := c.entryModelFor(ev.Entry)
		em.arrivals = append(em.arrivals, ev.CallID)

	case trace.Shed:
		// ShedRejectNewest burns a fresh id with no Arrived event;
		// ShedRejectOldest evicts a pending (arrived or attached) call.
		if ci == nil {
			c.calls[ev.CallID] = &callInfo{entry: ev.Entry, state: csTerminal, slot: -1, terminal: ev.Kind}
			return
		}
		if ci.state != csArrived && ci.state != csAttached {
			c.fail(idx, ev, "bad-shed", "shed from state %v; only pending calls may be shed", ci.state)
		}
		c.terminate(ci, ev)

	case trace.Attached:
		if ci == nil {
			c.fail(idx, ev, "attach-without-arrival", "attached call never arrived")
			return
		}
		em := c.entryModelFor(ev.Entry)
		switch ci.state {
		case csArrived:
			// §2.5: waiting requests are attached to free elements in
			// arrival order. Skip arrivals that left the queue early
			// (withdrawn, shed or failed before attachment).
			for len(em.arrivals) > 0 {
				head := em.arrivals[0]
				if hc := c.calls[head]; hc != nil && hc.state == csTerminal {
					em.arrivals = em.arrivals[1:]
					continue
				}
				break
			}
			if len(em.arrivals) == 0 || em.arrivals[0] != ev.CallID {
				c.fail(idx, ev, "attach-not-fifo",
					"attached out of arrival order (queue head %v)", queueHead(em.arrivals))
			}
			c.dequeue(em, ev.CallID)
		case csAccepted:
			// Manager-restart requeue: accepted-but-unstarted calls
			// re-attach for the next incarnation (docs/SUPERVISION.md).
			c.requeues++
			if ev.Slot != ci.slot {
				c.fail(idx, ev, "requeue-slot-change", "requeued to element %d, was %d", ev.Slot, ci.slot)
			}
		default:
			c.fail(idx, ev, "bad-attach", "attach from state %v", ci.state)
			return
		}
		if ev.Slot < 0 || ev.Slot >= m.Array {
			c.fail(idx, ev, "slot-range", "element %d outside array [0,%d)", ev.Slot, m.Array)
			return
		}
		if owner, busy := em.slots[ev.Slot]; busy && owner != ev.CallID {
			c.fail(idx, ev, "slot-exclusion",
				"element %d already occupied by call %d", ev.Slot, owner)
		}
		em.slots[ev.Slot] = ev.CallID
		ci.slot = ev.Slot
		ci.state = csAttached

	case trace.Accepted:
		if ci == nil {
			c.fail(idx, ev, "accept-without-arrival", "accepted call never arrived")
			return
		}
		if !m.Intercepted {
			c.fail(idx, ev, "accept-not-intercepted", "accept on entry outside the intercepts clause")
		}
		if ci.state != csAttached {
			c.fail(idx, ev, "bad-accept", "accept from state %v, want attached", ci.state)
			return
		}
		c.checkSlot(idx, ev, ci)
		ci.state = csAccepted

	case trace.Started:
		if ci == nil {
			c.fail(idx, ev, "start-without-arrival", "started call never arrived")
			return
		}
		// Intercepted entries start only by manager decision after accept
		// (§2.3); non-intercepted entries start directly on attachment.
		want := csAttached
		if m.Intercepted {
			want = csAccepted
		}
		if ci.state != want {
			c.fail(idx, ev, "bad-start", "start from state %v, want %v", ci.state, want)
			return
		}
		c.checkSlot(idx, ev, ci)
		ci.everStarted = true
		ci.state = csStarted

	case trace.Ready:
		if ci == nil {
			c.fail(idx, ev, "ready-without-arrival", "ready call never arrived")
			return
		}
		switch ci.state {
		case csStarted:
		case csAwaited:
			// Manager-restart requeue: awaited-but-unfinished calls become
			// ready again for the next incarnation.
			c.requeues++
		default:
			c.fail(idx, ev, "bad-ready", "ready from state %v", ci.state)
			return
		}
		c.checkSlot(idx, ev, ci)
		ci.state = csReady

	case trace.Awaited:
		if ci == nil {
			c.fail(idx, ev, "await-without-arrival", "awaited call never arrived")
			return
		}
		if ci.state != csReady {
			c.fail(idx, ev, "bad-await", "await from state %v, want ready", ci.state)
			return
		}
		c.checkSlot(idx, ev, ci)
		ci.state = csAwaited

	case trace.Finished:
		if ci == nil {
			c.fail(idx, ev, "finish-without-arrival", "finished call never arrived")
			return
		}
		// Intercepted entries require the manager's full endorsement:
		// await must precede finish (§2.3). During close/poison the manager
		// is gone and the runtime terminates started bodies directly.
		switch {
		case !m.Intercepted && ci.state == csStarted:
		case m.Intercepted && ci.state == csAwaited:
		case m.Intercepted && ci.state == csStarted && relaxed:
		default:
			c.fail(idx, ev, "finish-without-await",
				"finish from state %v (intercepted=%v, close/poison=%v)", ci.state, m.Intercepted, relaxed)
		}
		c.terminate(ci, ev)

	case trace.Combined:
		if ci == nil {
			c.fail(idx, ev, "combine-without-arrival", "combined call never arrived")
			return
		}
		// §2.7: combining answers an accepted request without starting it.
		if ci.state != csAccepted {
			c.fail(idx, ev, "bad-combine", "combine from state %v, want accepted", ci.state)
		}
		if ci.everStarted {
			c.fail(idx, ev, "combine-after-start", "combined request also ran a body")
		}
		if m.IPParams != m.Params {
			c.fail(idx, ev, "combine-partial-params",
				"combining with %d of %d params intercepted", m.IPParams, m.Params)
		}
		c.terminate(ci, ev)

	case trace.Failed:
		if ci == nil {
			c.fail(idx, ev, "fail-without-arrival", "failed call never arrived")
			return
		}
		if ci.state == csTerminal {
			c.fail(idx, ev, "double-terminal", "failed after %v", ci.terminal)
			return
		}
		c.terminate(ci, ev)

	default:
		c.fail(idx, ev, "unknown-kind", "unrecognised event kind %v", ev.Kind)
	}
}

// checkSlot verifies an in-lifecycle event names the call's own element.
func (c *checker) checkSlot(idx int, ev trace.Event, ci *callInfo) {
	if ev.Slot != ci.slot {
		c.fail(idx, ev, "slot-mismatch", "event names element %d, call is bound to %d", ev.Slot, ci.slot)
	}
}

// terminate moves a call to its terminal state, frees its array element
// and flags repeated terminals.
func (c *checker) terminate(ci *callInfo, ev trace.Event) {
	if ci.state == csTerminal {
		c.divs = append(c.divs, Divergence{
			Rule:   "double-terminal",
			Entry:  ev.Entry,
			CallID: ev.CallID,
			Index:  -1,
			Detail: fmt.Sprintf("%v after %v", ev.Kind, ci.terminal),
		})
		return
	}
	if em := c.entries[ci.entry]; em != nil {
		if ci.slot >= 0 && em.slots[ci.slot] == ev.CallID {
			delete(em.slots, ci.slot)
		}
		c.dequeue(em, ev.CallID)
	}
	ci.state = csTerminal
	ci.terminal = ev.Kind
}

// dequeue removes id from the entry's arrival queue wherever it sits.
func (c *checker) dequeue(em *entryModel, id uint64) {
	for i, q := range em.arrivals {
		if q == id {
			em.arrivals = append(em.arrivals[:i], em.arrivals[i+1:]...)
			return
		}
	}
}

func queueHead(q []uint64) any {
	if len(q) == 0 {
		return "<empty>"
	}
	return q[0]
}

// finish runs the end-of-stream checks: every call terminal, restart
// requeues justified by a restart marker.
func (c *checker) finish() {
	for id, ci := range c.calls {
		if ci.state != csTerminal {
			c.divs = append(c.divs, Divergence{
				Rule:   "call-not-terminated",
				Entry:  ci.entry,
				CallID: id,
				Index:  -1,
				Detail: fmt.Sprintf("stream ended with call in state %v", ci.state),
			})
		}
	}
	if c.requeues > 0 && c.restarts == 0 {
		c.divs = append(c.divs, Divergence{
			Rule:   "requeue-without-restart",
			Index:  -1,
			Detail: fmt.Sprintf("%d restart-requeue transitions but no MgrRestart marker", c.requeues),
		})
	}
}

// Outcome tallies what an entry's callers observed, for the result-delivery
// audit: a caller must receive results exactly when the manager endorsed
// the call's termination (finish, §2.3) or combined it (§2.7).
type Outcome struct {
	OK  int // calls that returned results to their caller
	Err int // calls that returned an error
}

// CheckOutcomes cross-checks caller-observed outcomes against the trace:
// #results delivered must equal #finished + #combined per entry (no result
// without a finish endorsement, no endorsement that delivered nothing),
// and #errors must equal #failed + #shed. It assumes an error-free run —
// a body that returns an error produces a Finished event with an error
// outcome and should be reported separately by the harness.
func CheckOutcomes(events []trace.Event, outcomes map[string]Outcome) []Divergence {
	type counts struct{ finished, combined, failed, shed int }
	byEntry := make(map[string]*counts)
	for _, ev := range events {
		cnt := byEntry[ev.Entry]
		if cnt == nil {
			cnt = &counts{}
			byEntry[ev.Entry] = cnt
		}
		switch ev.Kind {
		case trace.Finished:
			cnt.finished++
		case trace.Combined:
			cnt.combined++
		case trace.Failed:
			cnt.failed++
		case trace.Shed:
			cnt.shed++
		}
	}
	var divs []Divergence
	for entry, out := range outcomes {
		cnt := byEntry[entry]
		if cnt == nil {
			cnt = &counts{}
		}
		if endorsed := cnt.finished + cnt.combined; out.OK != endorsed {
			rule := "result-without-finish"
			if out.OK < endorsed {
				rule = "finish-without-result"
			}
			divs = append(divs, Divergence{
				Rule:  rule,
				Entry: entry,
				Index: -1,
				Detail: fmt.Sprintf("callers saw %d results, trace endorsed %d (finished %d + combined %d)",
					out.OK, endorsed, cnt.finished, cnt.combined),
			})
		}
		if terminalErrs := cnt.failed + cnt.shed; out.Err != terminalErrs {
			divs = append(divs, Divergence{
				Rule:  "error-accounting",
				Entry: entry,
				Index: -1,
				Detail: fmt.Sprintf("callers saw %d errors, trace recorded %d (failed %d + shed %d)",
					out.Err, terminalErrs, cnt.failed, cnt.shed),
			})
		}
	}
	return divs
}
