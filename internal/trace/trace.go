// Package trace records the lifecycle events of calls inside an ALPS object.
//
// The paper (§1) notes that the manager "provides a facility for pre- and
// post-processing of entry calls which can be used not only to implement
// scheduling but also to monitor the object". The recorder is the
// object-monitoring hook: the core runtime emits one event per lifecycle
// transition, and tests assert on the resulting sequences.
package trace

import (
	"fmt"
	"sync"
	"time"
)

// Kind identifies a call lifecycle transition.
type Kind int

const (
	// Arrived: a call reached the object.
	Arrived Kind = iota + 1
	// Attached: the call was bound to a hidden-procedure-array element.
	Attached
	// Accepted: the manager executed accept for the call.
	Accepted
	// Started: the manager executed start; the body is running.
	Started
	// Ready: the body finished and is awaiting the manager's endorsement.
	Ready
	// Awaited: the manager executed await for the call.
	Awaited
	// Finished: the manager executed finish; results returned to caller.
	Finished
	// Combined: the call was finished without being started (§2.7).
	Combined
	// Failed: the call ended with an error (panic, cancellation, close).
	Failed
	// Shed: admission control rejected a call (entry MaxPending bound full).
	Shed
	// Stalled: the stall watchdog found the oldest pending call older than
	// its threshold while the manager was still live.
	Stalled
	// MgrRestart: the supervisor restarted a crashed manager process.
	MgrRestart
	// Poisoned: the object was poisoned — its manager died without recovery
	// and every pending and future call fails with ErrObjectPoisoned.
	Poisoned
	// Closed: the object began shutting down. Emitted exactly once, before
	// the close sweep fails the calls the manager can no longer serve, so
	// trace consumers can scope close-phase lifecycle relaxations (a call
	// may jump to Failed, or a started body may finish without the
	// manager's await/finish endorsement) to events after this marker.
	Closed
)

var kindNames = map[Kind]string{
	Arrived:    "arrived",
	Attached:   "attached",
	Accepted:   "accepted",
	Started:    "started",
	Ready:      "ready",
	Awaited:    "awaited",
	Finished:   "finished",
	Combined:   "combined",
	Failed:     "failed",
	Shed:       "shed",
	Stalled:    "stalled",
	MgrRestart: "mgr-restart",
	Poisoned:   "poisoned",
	Closed:     "closed",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded lifecycle transition.
type Event struct {
	Time   time.Time
	Object string
	Entry  string
	Slot   int // hidden-array index, -1 if not yet attached
	CallID uint64
	Kind   Kind
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%s.%s[%d]#%d %s", e.Object, e.Entry, e.Slot, e.CallID, e.Kind)
}

// Recorder accumulates events. A nil *Recorder is valid and records nothing,
// so the runtime can call it unconditionally.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	limit  int
}

// NewRecorder creates a recorder that keeps at most limit events
// (0 means unlimited). When full, the oldest events are dropped.
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Record appends an event. Safe on a nil receiver.
func (r *Recorder) Record(object, entry string, slot int, callID uint64, kind Kind) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{
		Time:   time.Now(),
		Object: object,
		Entry:  entry,
		Slot:   slot,
		CallID: callID,
		Kind:   kind,
	})
	if r.limit > 0 && len(r.events) > r.limit {
		drop := len(r.events) - r.limit
		r.events = append(r.events[:0], r.events[drop:]...)
	}
}

// Events returns a copy of the recorded events in order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = r.events[:0]
}

// ByCall groups the recorded events by call ID, preserving order within
// each call.
func (r *Recorder) ByCall() map[uint64][]Event {
	events := r.Events()
	out := make(map[uint64][]Event)
	for _, e := range events {
		out[e.CallID] = append(out[e.CallID], e)
	}
	return out
}

// Count reports how many events of the given kind were recorded for the
// given entry ("" matches all entries).
func (r *Recorder) Count(entry string, kind Kind) int {
	n := 0
	for _, e := range r.Events() {
		if (entry == "" || e.Entry == entry) && e.Kind == kind {
			n++
		}
	}
	return n
}
