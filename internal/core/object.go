// Package core implements the ALPS object model: objects with shared data
// and entry procedures, manager processes that intercept calls and implement
// all synchronization and scheduling, and hidden procedure arrays
// (Vishnubhotla, "Synchronization and Scheduling in ALPS Objects",
// ICDCS 1988).
//
// An Object is built from EntrySpecs and an optional manager function. Calls
// to intercepted entries are delayed until the manager accepts them; the
// manager then starts, awaits and finishes each call (or finishes an
// accepted call directly, combining several requests into one execution).
// Entries declared with Array > 1 are hidden procedure arrays: callers see a
// single procedure while the implementation services up to Array calls
// concurrently, each attached to its own array element.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
)

// Object is an ALPS object instance: a data part shared by a set of entry
// procedures, plus an optional manager process that owns all scheduling.
type Object struct {
	name string

	mu      sync.Mutex
	entries map[string]*entry
	order   []string // declaration order, for deterministic introspection
	closed  bool

	closeCh chan struct{}
	pool    *sched.Pool
	rec     *trace.Recorder
	gate    bool // priority gate: yield to the manager after state changes
	oneProc bool // GOMAXPROCS was 1 at New: its Loop lends nothing

	// callerRun: a started body runs on the caller waiting for it, not on a
	// pool process (sched.ModeSpawn, the default; see startBodyLocked).
	callerRun bool

	mgrFn      func(*Mgr)
	mgr        atomic.Pointer[Mgr] // current incarnation; swapped on restart
	mgrDone    chan struct{}
	mgrErr     error
	initFn     func()
	nextCallID atomic.Uint64
	bodyWG     sync.WaitGroup

	// Supervision state (docs/SUPERVISION.md). lifeCtx is cancelled on close
	// or poison, so bodies (Invocation.Ctx) and blocked admission waiters
	// observe either promptly.
	sup        ObjectOptions
	poisoned   bool
	poisonErr  error
	mgrGone    bool // manager returned normally while the object was open
	restarts   int
	sheds      uint64
	stalls     uint64
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	wdDone     chan struct{} // nil unless the stall watchdog is running
	wdEnabled  bool

	// crPool recycles callRecords (and their buffered result channels)
	// across invocations; see the lifecycle notes on callRecord.
	crPool sync.Pool

	// Batched intake mailbox (docs/PERFORMANCE.md): arrivals at intercepted,
	// unbounded entries append here under intakeMu — held only for the
	// append — instead of competing for o.mu with a manager that holds it
	// across guard scans. The manager folds the whole list into the wait
	// queues in one wakeup (drainIntakeLocked). intakeSpare is the drained
	// buffer kept for the next swap; it is touched only under o.mu.
	// intakeClosed is set (under intakeMu) at close/poison so late arrivals
	// fall through to the slow path and observe the precise error.
	intakeMu     sync.Mutex
	intake       []*callRecord
	intakeClosed bool
	intakeSpare  []*callRecord

	// seq is the scheduling-decision hook (nil in production; see
	// Sequencer). Immutable after New.
	seq Sequencer

	// journal is the durability hook (nil in production unless the object
	// is journaled; see Journal). Immutable after New.
	journal Journal

	poolMode    sched.Mode
	poolWorkers int
}

// Option configures an Object at construction time.
type Option func(*config)

type config struct {
	entries     []EntrySpec
	mgrFn       func(*Mgr)
	intercepts  []InterceptSpec
	initFn      func()
	rec         *trace.Recorder
	gate        bool
	gateSet     bool
	poolMode    sched.Mode
	poolWorkers int
	sup         ObjectOptions
	supSet      bool
}

// WithEntry declares one procedure of the object's implementation part.
func WithEntry(spec EntrySpec) Option {
	return func(c *config) { c.entries = append(c.entries, spec) }
}

// WithManager installs the manager process and its intercepts clause. The
// function runs on its own process, started implicitly after the object's
// initialization code (paper §2.3); it should return when its Loop or Select
// reports ErrClosed.
func WithManager(fn func(*Mgr), intercepts ...InterceptSpec) Option {
	return func(c *config) {
		c.mgrFn = fn
		c.intercepts = append(c.intercepts, intercepts...)
	}
}

// WithInit registers initialization code executed when the object is
// created, before the manager starts.
func WithInit(fn func()) Option {
	return func(c *config) { c.initFn = fn }
}

// WithTrace attaches a lifecycle event recorder (object monitoring).
func WithTrace(rec *trace.Recorder) Option {
	return func(c *config) { c.rec = rec }
}

// WithPriorityGate controls whether state-changing processes yield to the
// scheduler after waking the manager, approximating the paper's
// high-priority manager (§3). Default on.
func WithPriorityGate(on bool) Option {
	return func(c *config) { c.gate = on; c.gateSet = true }
}

// WithPool selects the lightweight-process provisioning mode (paper §3).
// workers is M for sched.ModePooled and is ignored otherwise: ModeOneToOne
// always pre-creates one process per hidden-array element. The default is
// sched.ModeSpawn, a process per started call: the caller's own, which
// waits for the call anyway, so no process is created (startBodyLocked).
func WithPool(mode sched.Mode, workers int) Option {
	return func(c *config) { c.poolMode = mode; c.poolWorkers = workers }
}

// New creates, initializes and starts an object: the initialization code
// runs first, then the manager process is created and started (paper §2.3).
func New(name string, opts ...Option) (*Object, error) {
	cfg := config{gate: true, poolMode: sched.ModeSpawn}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.gateSet && cfg.mgrFn == nil {
		return nil, fmt.Errorf("object %s: WithPriorityGate: %w", name, ErrNoManager)
	}
	if len(cfg.intercepts) > 0 && cfg.mgrFn == nil {
		return nil, fmt.Errorf("object %s: intercepts clause without manager: %w", name, ErrNoManager)
	}
	if cfg.supSet {
		if err := cfg.sup.validate(name, cfg.mgrFn != nil); err != nil {
			return nil, err
		}
	}

	o := &Object{
		name:      name,
		entries:   make(map[string]*entry, len(cfg.entries)),
		closeCh:   make(chan struct{}),
		rec:       cfg.rec,
		gate:      cfg.gate && cfg.mgrFn != nil,
		oneProc:   runtime.GOMAXPROCS(0) == 1,
		callerRun: cfg.poolMode == sched.ModeSpawn,
		mgrFn:     cfg.mgrFn,
		initFn:    cfg.initFn,
		poolMode:  cfg.poolMode,
		sup:       cfg.sup,
		seq:       cfg.sup.Sequencer,
		journal:   cfg.sup.Journal,
	}
	o.wdEnabled = cfg.sup.Watchdog.Threshold > 0
	o.lifeCtx, o.lifeCancel = context.WithCancel(context.Background())
	if len(cfg.entries) == 0 {
		return nil, fmt.Errorf("object %s: no entry procedures: %w", name, ErrBadState)
	}
	totalSlots := 0
	for _, spec := range cfg.entries {
		if err := spec.validate(); err != nil {
			return nil, fmt.Errorf("object %s: %w", name, err)
		}
		if _, dup := o.entries[spec.Name]; dup {
			return nil, fmt.Errorf("object %s: duplicate entry %q: %w", name, spec.Name, ErrBadState)
		}
		e := newEntry(spec)
		if spec.MaxPending > 0 {
			e.maxPending, e.shedPolicy = spec.MaxPending, spec.Shed
		} else {
			e.maxPending, e.shedPolicy = cfg.sup.MaxPending, cfg.sup.Shed
		}
		o.entries[spec.Name] = e
		o.order = append(o.order, spec.Name)
		totalSlots += e.spec.Array
	}
	for _, is := range cfg.intercepts {
		e, ok := o.entries[is.Entry]
		if !ok {
			return nil, fmt.Errorf("object %s: intercepts %q: %w", name, is.Entry, ErrUnknownEntry)
		}
		if e.intercepted {
			return nil, fmt.Errorf("object %s: entry %q intercepted twice: %w", name, is.Entry, ErrBadState)
		}
		if is.Params < 0 || is.Params > e.spec.Params {
			return nil, fmt.Errorf("object %s: intercepts %s(%d params) but entry declares %d: %w",
				name, is.Entry, is.Params, e.spec.Params, ErrBadArity)
		}
		if is.Results < 0 || is.Results > e.spec.Results {
			return nil, fmt.Errorf("object %s: intercepts %s(%d results) but entry declares %d: %w",
				name, is.Entry, is.Results, e.spec.Results, ErrBadArity)
		}
		e.intercepted = true
		e.ipParams = is.Params
		e.ipResults = is.Results
	}
	for _, e := range o.entries {
		// Intercepted entries without an admission bound take the mailbox
		// fast path: nothing on the submit side needs o.mu (validation uses
		// immutable spec data, and there is no pending bound to check).
		e.fastIntake = e.intercepted && e.maxPending == 0
	}

	workers := cfg.poolWorkers
	if cfg.poolMode == sched.ModeOneToOne {
		workers = totalSlots
	}
	pool, err := sched.New(cfg.poolMode, workers)
	if err != nil {
		return nil, fmt.Errorf("object %s: %w", name, err)
	}
	o.pool = pool
	o.poolWorkers = workers

	if o.initFn != nil {
		o.initFn()
	}
	if o.wdEnabled {
		o.wdDone = make(chan struct{})
		go o.runWatchdog(o.sup.Watchdog)
	}
	if o.mgrFn != nil {
		o.mgrDone = make(chan struct{})
		go o.superviseManager()
	}
	return o, nil
}

// Name reports the object's name.
func (o *Object) Name() string { return o.name }

// Entries reports the declared procedure names in declaration order.
func (o *Object) Entries() []string {
	out := make([]string, len(o.order))
	copy(out, o.order)
	return out
}

// EntryInfo reports the declared arities of an entry.
func (o *Object) EntryInfo(name string) (EntrySpec, bool) {
	e, ok := o.entries[name]
	if !ok {
		return EntrySpec{}, false
	}
	spec := e.spec
	spec.Body = nil
	return spec, true
}

// EntryIntercepted reports whether the entry is listed in the manager's
// intercepts clause, and the intercepted parameter/result prefix widths.
// The conformance checker uses this to select the legal lifecycle shape for
// the entry's calls (intercepted calls pass through accept/await/finish;
// plain calls start as soon as an array element frees up).
func (o *Object) EntryIntercepted(name string) (intercepted bool, ipParams, ipResults int) {
	e, ok := o.entries[name]
	if !ok {
		return false, 0, 0
	}
	return e.intercepted, e.ipParams, e.ipResults
}

// PoolStats reports lightweight-process statistics for the object.
func (o *Object) PoolStats() sched.Stats { return o.pool.Stats() }

// EntryStats reports an entry's lifetime counters and current queue state,
// the monitoring counterpart to the #P notation.
func (o *Object) EntryStats(name string) (EntryStats, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.drainIntakeLocked() // count mailbox arrivals in Calls and Pending
	e, ok := o.entries[name]
	if !ok {
		return EntryStats{}, false
	}
	return EntryStats{
		Calls:     e.calls,
		Completed: e.completed,
		Combined:  e.combined,
		Failed:    e.failed,
		Shed:      e.shed,
		Pending:   e.pending(),
		Active:    e.active,
	}, true
}

// Call invokes an entry procedure and blocks until it terminates, returning
// its regular results ("X.P(...)", paper §2.2).
//
// Ownership of the params slice transfers to the runtime for the duration
// of the call: callers that spread a retained slice (o.Call(name, vals...))
// must not mutate it until Call returns. The usual literal-argument form
// allocates a fresh slice at the call site, so no defensive copy is made.
func (o *Object) Call(name string, params ...Value) ([]Value, error) {
	return o.CallCtx(context.Background(), name, params...)
}

// CallCtx is Call with a context. Cancellation is honoured while the call is
// waiting to be attached or accepted; once the manager has accepted the
// call, it runs to completion and the results are discarded. In the default
// pool mode its body runs on the calling goroutine (startBodyLocked).
func (o *Object) CallCtx(ctx context.Context, name string, params ...Value) ([]Value, error) {
	if t := o.sup.DefaultCallTimeout; t > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, t)
			defer cancel()
		}
	}
	cr, err := o.submit(ctx, name, params, false)
	if err != nil {
		return nil, err
	}
	return o.awaitResult(ctx, cr)
}

// awaitResult blocks for the call's outcome, honouring cancellation, and
// drops the caller's reference on the record when done. The uncancellable
// case (context.Background and friends) skips the two-way select.
func (o *Object) awaitResult(ctx context.Context, cr *callRecord) ([]Value, error) {
	o.seqPoint(SeqAwaitResult, cr.entry.spec.Name, cr.id)
	if ctx.Done() == nil {
		return o.settle(cr, o.receive(cr, <-cr.resultCh))
	}
	select {
	case res := <-cr.resultCh:
		return o.settle(cr, o.receive(cr, res))
	case <-ctx.Done():
	}
	// Try to withdraw the call; if it is already accepted we must wait.
	if o.withdraw(cr) {
		cr.release(o)
		return nil, ctx.Err()
	}
	return o.settle(cr, o.receive(cr, <-cr.resultCh))
}

// receive turns what the caller took off resultCh into the call's outcome:
// a start that posted the body here (errRunBody) is submitted to the pool,
// Go(nil), and run on this goroutine first, and the outcome follows on the
// same channel.
func (o *Object) receive(cr *callRecord, res callResult) callResult {
	if res.err != errRunBody {
		return res
	}
	if o.pool.Go(nil) == nil {
		o.runBody(cr, true)
	} else {
		e := cr.entry
		o.mu.Lock()
		o.failStartLocked(cr)
		o.mu.Unlock()
		o.wakeManager(nil, e, nil)
	}
	return <-cr.resultCh
}

// settle hands a delivered result to the caller, first holding it until
// the outcome is durable when the object's journal asked for that (the
// record's lsn must be read before release returns the record to the
// pool). With no journal this is the release the fast path always did.
func (o *Object) settle(cr *callRecord, res callResult) ([]Value, error) {
	if o.journal == nil {
		cr.release(o)
		return res.results, res.err
	}
	lsn := cr.lsn
	cr.release(o)
	if lsn != 0 {
		if err := o.journal.WaitDurable(lsn); err != nil {
			// The transition happened in memory but is not on disk; the
			// caller must not treat it as done.
			return nil, err
		}
	}
	return res.results, res.err
}

// submit validates, admits and enqueues a call. internal marks calls
// originating from inside the object (local procedure interception, §2.3).
// ctx is consulted only when admission control blocks the caller.
//
// Validation is lock-free (the entries map and specs are immutable after
// New). Intercepted, unbounded entries then take the mailbox fast path; all
// other calls — and late arrivals racing with close or poison — go through
// o.mu, where the precise admission and error rules live.
func (o *Object) submit(ctx context.Context, name string, params []Value, internal bool) (*callRecord, error) {
	e, ok := o.entries[name]
	if !ok {
		return nil, fmt.Errorf("object %s: call %q: %w", o.name, name, ErrUnknownEntry)
	}
	if e.spec.Local && !internal {
		return nil, fmt.Errorf("object %s: %q is a local procedure: %w", o.name, name, ErrUnknownEntry)
	}
	if len(params) != e.spec.Params {
		return nil, fmt.Errorf("object %s: call %s with %d params, declared %d: %w",
			o.name, name, len(params), e.spec.Params, ErrBadArity)
	}
	o.seqPoint(SeqSubmit, name, 0)
	if e.fastIntake {
		if cr, ok := o.submitIntake(e, params); ok {
			o.wakeManager(ctx, e, cr)
			return cr, nil
		}
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil, fmt.Errorf("object %s: %w", o.name, ErrClosed)
	}
	if o.poisoned || e.maxPending > 0 {
		if err := o.admitLocked(ctx, e); err != nil {
			return nil, err // admitLocked released the lock
		}
	}
	cr := o.acquireCall(e, params)
	e.calls++
	o.record(name, -1, cr.id, trace.Arrived)
	e.waitq = append(e.waitq, cr)
	o.attachWaitingLocked(e)
	o.mu.Unlock()
	o.wakeManager(ctx, e, cr)
	return cr, nil
}

// submitIntake is the mailbox fast path: append the arriving call under
// intakeMu and let the manager fold the whole list into the wait queues in
// one wakeup. It reports false when the mailbox is sealed (object closing
// or poisoned); the caller falls back to the slow path for the precise
// error. Publication safety: every field of the record is written by this
// goroutine before the append, and the manager reads them only after a
// drain, so the intakeMu release/acquire pair orders the writes before
// every manager access.
func (o *Object) submitIntake(e *entry, params []Value) (*callRecord, bool) {
	o.intakeMu.Lock()
	if o.intakeClosed {
		o.intakeMu.Unlock()
		return nil, false
	}
	cr := o.acquireCall(e, params)
	o.record(e.spec.Name, -1, cr.id, trace.Arrived)
	o.intake = append(o.intake, cr)
	o.intakeMu.Unlock()
	return cr, true
}

// drainIntakeLocked folds every mailbox arrival into its entry's wait
// queue and attaches what fits. Called with o.mu held — by the manager at
// the top of each scan (one drain serves the whole batch), and by any path
// that must observe the complete pending set (withdraw, stats, the
// watchdog, close, poison).
func (o *Object) drainIntakeLocked() {
	o.intakeMu.Lock()
	batch := o.intake
	if len(batch) == 0 {
		o.intakeMu.Unlock()
		return
	}
	o.intake = o.intakeSpare[:0]
	o.intakeMu.Unlock()
	attach := !o.closed && !o.poisoned
	for _, cr := range batch {
		e := cr.entry
		e.calls++
		e.waitq = append(e.waitq, cr)
		if attach {
			o.attachWaitingLocked(e)
		}
	}
	clear(batch) // drop the record references for GC
	o.intakeSpare = batch
}

// closeIntakeLocked seals the mailbox — future fast-path submissions fall
// through to the slow path and observe the close/poison state under o.mu —
// and folds buffered arrivals into their wait queues so the caller's sweep
// fails them like any other pending call. Called with o.mu held.
func (o *Object) closeIntakeLocked() {
	o.intakeMu.Lock()
	o.intakeClosed = true
	o.intakeMu.Unlock()
	o.drainIntakeLocked()
}

// acquireCall returns a recycled (or new) call record, fully reinitialized
// for a call to e with the given params (ownership of the slice transfers
// to the runtime). Callers hold either o.mu (slow path) or intakeMu (fast
// path); in both cases the record is unreachable from live handles — only
// stale ones, which validate through their slot before touching the record
// (see callRecord) — so the resets cannot be observed mid-write.
func (o *Object) acquireCall(e *entry, params []Value) *callRecord {
	cr, _ := o.crPool.Get().(*callRecord)
	if cr == nil {
		cr = &callRecord{resultCh: make(chan callResult, 1)}
		cr.runFn = func() { o.runBody(cr, false) }
	}
	cr.id = o.nextCallID.Add(1)
	cr.entry = e
	cr.params = params
	cr.delivered = false
	cr.slot = nil
	cr.mgrParams = nil
	cr.hiddenParams = nil
	cr.bodyResults = nil
	cr.hiddenResults = nil
	cr.bodyErr = nil
	cr.lsn = 0
	cr.inv = Invocation{}
	if o.wdEnabled {
		cr.arrived = time.Now()
	}
	cr.refs.Store(2) // one ref for the caller, one for the runtime
	return cr
}

// release drops one of the record's two references. The last release
// recycles the record; by then resultCh is guaranteed empty and no live
// handle refers to this lifecycle (stale ones are id-checked).
func (cr *callRecord) release(o *Object) {
	if cr.refs.Add(-1) == 0 {
		o.crPool.Put(cr)
	}
}

// record is the trace fast path: the common untraced case costs one branch
// instead of a five-argument call into the recorder.
func (o *Object) record(entry string, slot int, id uint64, kind trace.Kind) {
	if o.rec != nil {
		o.rec.Record(o.name, entry, slot, id, kind)
	}
}

// withdraw removes a cancelled call if it has not been accepted yet — or,
// when the manager is dead (object poisoned or manager returned while the
// object was open), even an accepted-but-unstarted call: no manager will
// ever start it, so holding the caller past its cancellation would be a
// hang. It reports whether the call was withdrawn.
func (o *Object) withdraw(cr *callRecord) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.drainIntakeLocked() // the call may still be sitting in the mailbox
	if cr.delivered {
		return false
	}
	e := cr.entry
	for i, w := range e.waitq {
		if w == cr {
			e.waitq = append(e.waitq[:i], e.waitq[i+1:]...)
			cr.delivered = true
			e.failed++
			o.record(e.spec.Name, -1, cr.id, trace.Failed)
			cr.release(o) // runtime reference: the call never attached
			o.notifySpaceLocked(e)
			return true
		}
	}
	if cr.slot != nil && (cr.slot.state == slotAttached ||
		(cr.slot.state == slotAccepted && (o.mgrGone || o.poisoned))) {
		cr.delivered = true
		e.failed++
		o.record(e.spec.Name, cr.slotIndex(), cr.id, trace.Failed)
		o.freeSlotLocked(cr.slot) // drops the runtime reference
		o.attachWaitingLocked(e)
		o.notifySpaceLocked(e)
		return true
	}
	return false // accepted or beyond: must run to completion
}

// attachWaitingLocked binds waiting calls to free hidden-array elements,
// choosing elements by rotating scan ("selected arbitrarily by the
// implementation", §2.5). Non-intercepted entries start immediately.
func (o *Object) attachWaitingLocked(e *entry) {
	for len(e.waitq) > 0 {
		s := o.findFreeSlotLocked(e)
		if s == nil {
			return
		}
		cr := e.waitq[0]
		if len(e.waitq) == 1 {
			// Emptied: keep the backing array, so a trickle of one call at
			// a time appends without allocating.
			e.waitq[0] = nil
			e.waitq = e.waitq[:0]
		} else {
			e.waitq = e.waitq[1:]
		}
		s.state = slotAttached
		s.call = cr
		cr.slot = s
		o.record(e.spec.Name, s.index, cr.id, trace.Attached)
		if e.intercepted {
			e.attached = enlist(e.attached, s)
		} else {
			// Non-intercepted: the call leaves the pending set (#P) the
			// moment it starts, freeing admission capacity.
			o.startBodyLocked(cr, cr.params, nil)
			o.notifySpaceLocked(e)
		}
	}
}

func (o *Object) findFreeSlotLocked(e *entry) *slot {
	n := len(e.slots)
	for i := 0; i < n; i++ {
		s := e.slots[(e.attachRot+i)%n]
		if s.state == slotFree {
			e.attachRot = (s.index + 1) % n
			return s
		}
	}
	return nil
}

// startBodyLocked transitions a call to started and submits its body to the
// process pool. regular and hidden are the parameter vectors the body sees.
// The record's embedded Invocation and pre-bound run thunk keep this
// allocation-free.
//
// Under callerRun the body's process is its caller's: every caller of a
// call waits in awaitResult until the call ends, and a started call cannot
// be withdrawn, so the start posts the body on resultCh (buffered, empty
// until the one outcome) and the caller submits it to the pool and runs it
// (receive). A caller that submits to an unmanaged entry with a free
// element finds its own body posted at once and runs it inline; one that
// holds the manager role runs it once serve has handed the role back (or
// hands it to a pool process if it must block first, Mgr.blockLocked).
// It reports whether it posted the body.
func (o *Object) startBodyLocked(cr *callRecord, regular, hidden []Value) (posted bool) {
	o.markStartedLocked(cr, regular, hidden)
	o.bodyWG.Add(1)
	if o.callerRun {
		cr.resultCh <- callResult{err: errRunBody}
		return true
	}
	if o.pool.Go(cr.runFn) != nil {
		o.failStartLocked(cr)
	}
	return false
}

// failStartLocked fails a started call whose body the pool refused: the
// pool is closed, so the object is shutting down.
func (o *Object) failStartLocked(cr *callRecord) {
	e := cr.entry
	o.bodyWG.Done()
	e.active--
	o.deliverLocked(cr, nil, ErrClosed)
	o.record(e.spec.Name, cr.slotIndex(), cr.id, trace.Failed)
	o.freeSlotLocked(cr.slot)
}

// markStartedLocked moves an attached or accepted call to started and binds
// the parameter vectors its body sees to the record's embedded Invocation.
func (o *Object) markStartedLocked(cr *callRecord, regular, hidden []Value) {
	e := cr.entry
	cr.slot.state = slotStarted
	cr.hiddenParams = hidden
	e.active++
	o.record(e.spec.Name, cr.slotIndex(), cr.id, trace.Started)
	cr.inv = Invocation{obj: o, call: cr, params: regular, hidden: hidden}
}

// runBody executes a body on its caller (onCaller) or another process and
// routes its termination. A caller that ran its body still waits for the
// call, so when the manager is parked in Loop it takes the role and runs
// the selections that await and finish its call (wakeManager, Mgr.serve),
// as it does at submission.
func (o *Object) runBody(cr *callRecord, onCaller bool) {
	defer o.bodyWG.Done()
	e := cr.entry
	o.runBodyThenLock(cr)
	if e.intercepted && !o.closed && !o.poisoned {
		// Wait for the manager's endorsement of termination (§2.3).
		cr.slot.state = slotReady
		e.ready = enlist(e.ready, cr.slot)
		o.record(e.spec.Name, cr.slotIndex(), cr.id, trace.Ready)
		o.mu.Unlock()
		if onCaller {
			o.wakeManager(context.Background(), e, cr)
		} else {
			o.wakeManager(nil, e, nil)
		}
		return
	}
	// Non-intercepted entry (or closing/poisoned object): terminate directly.
	o.terminateLocked(cr)
	o.mu.Unlock()
	o.wakeManager(nil, e, nil)
}

// terminateLocked delivers a run body's outcome without a manager's finish
// — a non-intercepted entry, Execute, or a body that ends on a closing or
// poisoned object — and frees its element for the next waiting call.
func (o *Object) terminateLocked(cr *callRecord) {
	e := cr.entry
	e.active--
	switch {
	case cr.bodyErr != nil:
		o.deliverLocked(cr, nil, cr.bodyErr)
	case o.poisoned && e.intercepted:
		// The dead manager cannot endorse the result (§2.3's await/finish
		// will never run), so the caller gets the poison error.
		o.deliverLocked(cr, nil, o.poisonErr)
	case o.closed && e.intercepted:
		o.deliverLocked(cr, nil, ErrClosed)
	default:
		o.deliverLocked(cr, cr.bodyResults, nil)
	}
	o.record(e.spec.Name, cr.slotIndex(), cr.id, trace.Finished)
	o.freeSlotLocked(cr.slot)
	o.attachWaitingLocked(e)
}

// runBodyThenLock runs cr's body on the calling process (its caller, a pool
// process, or the role holder under Execute), checks the returned arities,
// and stores the outcome in the record. It returns with o.mu held.
func (o *Object) runBodyThenLock(cr *callRecord) {
	inv := &cr.inv
	e := cr.entry
	o.seqPoint(SeqBodyBegin, e.spec.Name, cr.id)
	err := runSafely(o, cr, e.spec.Body, inv)
	if err == nil {
		err = o.resultArityErr(e, inv)
	}
	o.seqPoint(SeqBodyEnd, e.spec.Name, cr.id)
	o.mu.Lock()
	cr.bodyResults = inv.results
	cr.hiddenResults = inv.hiddenRes
	cr.bodyErr = err
}

// resultArityErr checks a returned body's results against the entry's
// declared result and hidden-result counts.
func (o *Object) resultArityErr(e *entry, inv *Invocation) error {
	switch {
	case !inv.returned && e.spec.Results > 0:
		return fmt.Errorf("body %s.%s returned no results (declared %d): %w",
			o.name, e.spec.Name, e.spec.Results, ErrBadArity)
	case inv.returned && len(inv.results) != e.spec.Results:
		return fmt.Errorf("body %s.%s returned %d results, declared %d: %w",
			o.name, e.spec.Name, len(inv.results), e.spec.Results, ErrBadArity)
	case len(inv.hiddenRes) != e.spec.HiddenResults:
		return fmt.Errorf("body %s.%s returned %d hidden results, declared %d: %w",
			o.name, e.spec.Name, len(inv.hiddenRes), e.spec.HiddenResults, ErrBadArity)
	}
	return nil
}

func runSafely(o *Object, cr *callRecord, body Body, inv *Invocation) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &BodyError{Object: o.name, Entry: cr.entry.spec.Name, Slot: cr.slotIndex(), Reason: r}
		}
	}()
	return body(inv)
}

func (o *Object) deliverLocked(cr *callRecord, results []Value, err error) {
	if cr.delivered {
		return
	}
	cr.delivered = true
	if err != nil {
		cr.entry.failed++
	} else {
		cr.entry.completed++
	}
	if o.journal != nil {
		// Under o.mu: the journal sees outcomes in delivery order, which
		// for manager-exclusive mutations is execution order — the order a
		// crash-recovery replay must reapply them in (docs/DURABILITY.md).
		cr.lsn = o.journal.RecordOutcome(cr.entry.spec.Name, cr.id, cr.params, results, err)
	}
	cr.resultCh <- callResult{results: results, err: err}
}

// freeSlotLocked detaches the slot's call for good: every caller is
// finishing (or failing) the call, so the runtime reference is dropped here.
func (o *Object) freeSlotLocked(s *slot) {
	cr := s.call
	if s.listPos >= 0 {
		e := cr.entry
		switch s.state {
		case slotAttached:
			e.attached = delist(e.attached, s)
		case slotReady:
			e.ready = delist(e.ready, s)
		}
	}
	s.state = slotFree
	s.call = nil
	cr.release(o)
}

// wakeManager pokes the manager's selector — but only when the manager's
// published watch set says it could react to a change on e (poke elision,
// §3: the manager need not be disturbed for entries no guard watches) — and,
// when the priority gate is on, yields the processor so the high-priority
// manager runs first. A caller waiting for cr — at submission, or having
// run cr's body — that finds the manager parked in Loop takes the manager
// role instead and runs the next selection steps itself (Mgr.serve); it
// yields only if it handed work back to the manager goroutine.
func (o *Object) wakeManager(ctx context.Context, e *entry, cr *callRecord) {
	m := o.mgr.Load()
	if m == nil || !m.interested(e) {
		return
	}
	if m.wake(cr != nil) && !m.serve(ctx, cr) {
		return
	}
	if o.gate {
		runtime.Gosched()
	}
}

// ManagerErr reports a manager panic, if any.
func (o *Object) ManagerErr() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.mgrErr
}

// Done is closed when the object closes; long-running bodies should monitor
// it and terminate.
func (o *Object) Done() <-chan struct{} { return o.closeCh }

// Close shuts the object down: pending (unaccepted) calls fail with
// ErrClosed, the manager process exits, running bodies finish, and their
// callers — whom the manager can no longer serve — receive ErrClosed.
// Close blocks until shutdown completes and is idempotent.
func (o *Object) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		if o.mgrDone != nil {
			<-o.mgrDone
		}
		o.bodyWG.Wait()
		return nil
	}
	o.closed = true
	close(o.closeCh)
	o.record("", -1, 0, trace.Closed)
	o.closeIntakeLocked()
	for _, name := range o.order {
		e := o.entries[name]
		for _, cr := range e.waitq {
			o.deliverLocked(cr, nil, ErrClosed)
			o.record(name, -1, cr.id, trace.Failed)
			cr.release(o) // runtime reference: the call never attached
		}
		e.waitq = nil
		for _, s := range e.slots {
			if s.state == slotAttached || s.state == slotAccepted {
				o.deliverLocked(s.call, nil, ErrClosed)
				o.record(name, s.index, s.call.id, trace.Failed)
				o.freeSlotLocked(s)
			}
		}
		o.releaseAdmissionWaitersLocked(e)
	}
	o.mu.Unlock()
	o.lifeCancel()

	if m := o.mgr.Load(); m != nil {
		m.wake(false)
	}
	if o.mgrDone != nil {
		<-o.mgrDone
	}
	if o.wdDone != nil {
		<-o.wdDone
	}
	o.bodyWG.Wait()
	o.pool.Close()

	// Bodies that completed but were never finished by the manager.
	o.mu.Lock()
	for _, name := range o.order {
		e := o.entries[name]
		for _, s := range e.slots {
			if s.state != slotFree && s.call != nil {
				o.deliverLocked(s.call, nil, ErrClosed)
				o.record(name, s.index, s.call.id, trace.Failed)
				o.freeSlotLocked(s)
			}
		}
	}
	o.mu.Unlock()
	return nil
}
