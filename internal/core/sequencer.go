package core

import "fmt"

// SeqPoint identifies one scheduling decision point inside the runtime: a
// place where the interleaving of caller, manager and body processes is
// chosen. The conformance harness (internal/conformance) injects a Sequencer
// at these points to explore seeded schedules; production objects leave the
// hook nil and pay one predictable branch per point.
type SeqPoint int

const (
	// SeqSubmit: a caller is about to submit a call to the object.
	SeqSubmit SeqPoint = iota + 1
	// SeqAwaitResult: a caller is about to block for its call's outcome.
	SeqAwaitResult
	// SeqMgrScan: the manager is about to scan for an eligible alternative
	// (top of a Select iteration, which the standalone primitives are too).
	// It carries no entry.
	SeqMgrScan
	// SeqMgrAccept: the manager committed an accept.
	SeqMgrAccept
	// SeqMgrStart: the manager is about to start an accepted call.
	SeqMgrStart
	// SeqMgrAwait: the manager committed an await.
	SeqMgrAwait
	// SeqMgrFinish: the manager is about to finish an awaited call.
	SeqMgrFinish
	// SeqMgrCombine: the manager is about to finish an accepted call without
	// starting it (request combining, §2.7).
	SeqMgrCombine
	// SeqMgrExecute: the manager is about to run an accepted call inline.
	SeqMgrExecute
	// SeqBodyBegin: a body is about to run on its lightweight process.
	SeqBodyBegin
	// SeqBodyEnd: a body just returned; its termination is about to be
	// routed (to the manager's await queue, or directly to the caller).
	SeqBodyEnd
)

var seqPointNames = map[SeqPoint]string{
	SeqSubmit:      "submit",
	SeqAwaitResult: "await-result",
	SeqMgrScan:     "mgr-scan",
	SeqMgrAccept:   "mgr-accept",
	SeqMgrStart:    "mgr-start",
	SeqMgrAwait:    "mgr-await",
	SeqMgrFinish:   "mgr-finish",
	SeqMgrCombine:  "mgr-combine",
	SeqMgrExecute:  "mgr-execute",
	SeqBodyBegin:   "body-begin",
	SeqBodyEnd:     "body-end",
}

// String implements fmt.Stringer.
func (p SeqPoint) String() string {
	if s, ok := seqPointNames[p]; ok {
		return s
	}
	return fmt.Sprintf("SeqPoint(%d)", int(p))
}

// Sequencer is the virtual-scheduler hook: the runtime calls Point at every
// scheduling decision point, identifying the point kind, the entry involved
// ("" when none) and the call id (0 when not yet assigned). Implementations
// may block, yield or sleep to steer the interleaving; the runtime guarantees
// that Point is invoked with no runtime locks held, so a Sequencer can never
// deadlock the object by parking inside the hook.
//
// A nil Sequencer (the default) costs one branch per point and nothing else.
// Inject one via ObjectOptions.Sequencer.
type Sequencer interface {
	Point(p SeqPoint, object, entry string, callID uint64)
}

// seqPoint is the hook fast path: the common case (no sequencer) is a single
// nil check, mirroring the trace recorder's record fast path.
func (o *Object) seqPoint(p SeqPoint, entry string, callID uint64) {
	if o.seq != nil {
		o.seq.Point(p, o.name, entry, callID)
	}
}
