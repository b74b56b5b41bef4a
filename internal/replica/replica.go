// Package replica makes an ALPS object survive the death of its host: a
// Raft-style replicated log carries the object's call ledger — entry name,
// parameters, and the caller's (client, seq) at-most-once identity —
// across 3+ rpc.Nodes, so when the leader is killed mid-traffic a new
// leader finishes the group's work with the paper's managed-object
// semantics intact (docs/REPLICATION.md).
//
// The design reuses the substrate the earlier PRs built instead of
// inventing a parallel one:
//
//   - Consensus messages are ordinary wire.Frame requests on the pipelined
//     rpc transport, addressed to a control endpoint the node publishes
//     under ControlName(group) — no second codec, no second connection
//     pool, and the coalescing write path batches consensus and client
//     traffic together.
//   - The (client, seq) dedup cache of PR 1 doubles as the client-session
//     table (rpc.SessionTable): every member records each committed call's
//     response at apply time, in log order, so a call retried against a
//     NEW leader after a failover replays the recorded response instead of
//     re-executing the entry body — exactly-once across the failover.
//   - Each member's consensus state (term, vote, log, snapshot floor) is
//     durable through the same wal.Store that journals objects and acks,
//     under the same contract — the group is a store participant named
//     ControlName(group), storage.go — so a kill -9'd member recovers its
//     promises before rejoining, however often the store pruned in between.
//
// Scheduling note: commits are applied to the live object SEQUENTIALLY, in
// log order, which is what makes per-key FIFO trivial across a failover.
// The flip side is that a blocking guarded entry would stall the whole
// group's apply loop; replicate non-blocking entries (guards that shed or
// fail instead of parking) — see docs/REPLICATION.md §limits.
package replica

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ControlName returns the published name of a group's consensus endpoint
// on each member node. The "!" prefix keeps it out of the object
// namespace users see.
func ControlName(group string) string { return "!raft:" + group }

// ErrClosed is returned by calls on a closed replica.
var ErrClosed = errors.New("replica: closed")

// Role is a member's current consensus role.
type Role int

const (
	Follower Role = iota
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Config describes one member of a replication group.
type Config struct {
	// ID is this member's name; it must be a key of Peers.
	ID string
	// Group is the replicated object's published name; the consensus
	// endpoint rides under ControlName(Group).
	Group string
	// Peers maps member ID → node address for the whole group, self
	// included. Membership is static for the group's lifetime; a restarted
	// member rejoins under its old ID at the same address.
	Peers map[string]string
	// Dial opens a transport to a peer address. Defaults to TCP with a 2s
	// timeout; tests inject simnet dials here.
	Dial func(addr string) (net.Conn, error)
	// Store, when non-nil, makes this member's consensus state durable:
	// term and vote are synced before they are acted on, log entries
	// before they are acknowledged — the same ack-before-response
	// discipline the rpc layer uses for client responses.
	Store *wal.Store
	// ElectionTimeout is the base follower patience; an election fires
	// after a seeded-random duration in [T, 2T) without leader contact
	// (default 150ms). The leader heartbeats every T/10.
	ElectionTimeout time.Duration
	// Seed drives the randomized election timeouts, XORed with the
	// member ID's hash so members draw distinct but reproducible
	// sequences — the knob that makes failover schedules replayable.
	Seed uint64
	// Snapshot captures the applied object's state for log compaction and
	// rejoin catch-up; Restore rebuilds it. Both are invoked only from the
	// apply loop. Leaving them nil disables compaction: catch-up then
	// replays the full log, which is correct but unbounded.
	Snapshot func() ([]byte, error)
	Restore  func([]byte) error
	// Sequencer, when non-nil, receives a Point callback as each commit is
	// about to be applied (core.SeqMgrExecute with the group name and log
	// index) — the deterministic-schedule hook the conformance harness
	// uses to drive failover interleavings. ReadIndex reads emit
	// core.SeqMgrStart between quorum confirmation and local serve, the
	// window the leader-kill-during-read schedule targets.
	Sequencer core.Sequencer
	// ReadOnly, when non-nil, classifies entries that never mutate object
	// state (a registry Get, a counter read). Read-only calls on the
	// leader skip the log entirely: the ReadIndex fast path captures
	// commitIndex, confirms leadership with one quorum round, waits for
	// the local apply frontier, and serves from leader state — no append,
	// no fsync, no per-read replication (docs/REPLICATION.md §9). Nil
	// routes every call through the log (the pre-PR 9 behaviour).
	ReadOnly func(entry string) bool
	// Metrics, when non-nil, accumulates the replication counters
	// (rpc.Metrics.Repl*): combining ratio, batch sizes, pipeline window
	// occupancy, ReadIndex rounds.
	Metrics *rpc.Metrics
	// Logf, when non-nil, receives debug lines (role changes, elections).
	Logf func(format string, args ...any)

	// snapshotThreshold is the constant of that name when zero; tests
	// lower it.
	snapshotThreshold int
}

// snapshotThreshold compacts the log once more than this many applied
// entries are retained (with Snapshot and Restore set).
const snapshotThreshold = 1024

// heartbeat is the leader's heartbeat interval: a tenth of the election
// timeout, at least 1ms.
func (c *Config) heartbeat() time.Duration {
	return max(c.ElectionTimeout/10, time.Millisecond)
}

func (c *Config) withDefaults() {
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 150 * time.Millisecond
	}
	if c.snapshotThreshold <= 0 {
		c.snapshotThreshold = snapshotThreshold
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		}
	}
}

// entry is one replicated log record. A zero Entry name is the no-op
// barrier a fresh leader appends to commit its predecessors' entries
// (Raft's "no commit of prior-term entries by counting" rule).
type entry struct {
	Term   uint64
	Entry  string
	Client string
	Seq    uint64
	Params []any
}

// result is a resolved proposal.
type result struct {
	results []any
	err     error
}

// waiter parks one client call until its log entry applies (or dies).
type waiter struct {
	term uint64 // proposal term: a truncated entry fails its waiters
	ch   chan result
}

// proposal is one client call parked in the leader's combining queue: the
// first proposer to find the queue idle becomes the combiner and drains
// bounded windows of its peers' proposals into single append+sync+
// replicate rounds — the PR 7 combining-write-queue pattern one layer up
// (and the paper's C5 request combining applied to consensus itself).
type proposal struct {
	entry  string
	client string
	seq    uint64
	params []any
	ch     chan result
}

// readWait parks one ReadIndex read until a quorum has acknowledged a
// confirmation round issued at or after the read registered.
type readWait struct {
	confirm uint64 // round this read needs acknowledged
	ch      chan error
}

// Replica is one member of a replication group. It implements the node's
// serve surfaces: rpc.Callable for plain calls and the session-aware
// CallSession for deduplicated ones; Publish registers both plus the
// consensus control endpoint.
type Replica struct {
	cfg     Config
	obj     rpc.Callable
	journal *wal.ObjectJournal // the group's seat in cfg.Store; nil when in-memory

	mu       sync.Mutex
	role     Role
	term     uint64
	votedFor string
	leaderID string
	// journaled is the LSN of the last record this incarnation journaled. A
	// follower's log holds only entries recovered from disk or journaled at
	// or below it, so a sync through it covers the whole log.
	journaled uint64

	// log[i] holds index snapIndex+1+i; everything at or below snapIndex
	// lives only in the snapshot.
	log       []entry
	snapIndex uint64
	snapTerm  uint64
	snapBlob  []byte

	commitIndex uint64
	applied     uint64
	pendingSnap *snapshotPayload // installed by the apply loop

	peers []*peer

	waiters map[uint64][]waiter

	// ReadIndex state (leader side): barrierIdx is the accession barrier —
	// reads bounce until it commits, because a fresh leader's commitIndex
	// may predate entries its predecessor committed. confirmSeq numbers
	// quorum confirmation rounds; reads park until their round is acked,
	// readApply until the local apply frontier reaches their index.
	barrierIdx uint64
	confirmSeq uint64
	reads      []*readWait
	readApply  map[uint64][]chan struct{}

	sessions *rpc.SessionTable

	// Proposal combining queue (its own lock: enqueueing must not contend
	// with the consensus state the combiner holds r.mu to mutate).
	propMu    sync.Mutex
	propQ     []proposal
	combining bool

	electionDeadline time.Time
	rng              *workload.RNG

	applyCond *sync.Cond
	closed    bool
	done      chan struct{}
	wg        sync.WaitGroup
}

// New creates (and starts) a group member applying committed calls to
// obj. The member recovers its durable consensus state from cfg.Store
// before contacting any peer, then runs as a follower until elections say
// otherwise.
func New(cfg Config, obj rpc.Callable) (*Replica, error) {
	cfg.withDefaults()
	if cfg.ID == "" || cfg.Group == "" {
		return nil, errors.New("replica: Config.ID and Config.Group are required")
	}
	if _, ok := cfg.Peers[cfg.ID]; !ok {
		return nil, fmt.Errorf("replica: %s is not in Peers", cfg.ID)
	}
	r := &Replica{
		cfg:       cfg,
		obj:       obj,
		waiters:   make(map[uint64][]waiter),
		readApply: make(map[uint64][]chan struct{}),
		sessions:  rpc.NewSessionTable(),
		rng:       workload.NewRNG(cfg.Seed ^ idHash(cfg.ID)),
		done:      make(chan struct{}),
	}
	r.applyCond = sync.NewCond(&r.mu)
	for id, addr := range cfg.Peers {
		if id == cfg.ID {
			continue
		}
		r.peers = append(r.peers, newPeer(r, id, addr))
	}
	sort.Slice(r.peers, func(i, j int) bool { return r.peers[i].id < r.peers[j].id })
	if err := r.recover(); err != nil {
		return nil, err
	}
	r.resetElectionDeadline()
	r.wg.Add(2)
	go r.run()
	go r.applyLoop()
	for _, p := range r.peers {
		r.wg.Add(1)
		go p.loop()
	}
	return r, nil
}

// Publish registers the replica's serve surfaces on its node: the
// replicated object under the group name and the consensus endpoint under
// ControlName(group).
func (r *Replica) Publish(n *rpc.Node) error {
	if err := n.PublishCallable(r.cfg.Group, r); err != nil {
		return err
	}
	return n.PublishCallable(ControlName(r.cfg.Group), &control{r: r})
}

// Role reports the member's current role and term (diagnostics).
func (r *Replica) Status() (Role, uint64, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role, r.term, r.leaderID
}

// Applied reports how many log entries this member has applied.
func (r *Replica) Applied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// CallCtx implements rpc.Callable: a call with no at-most-once identity.
// It commits through the log like any other call but records no session.
func (r *Replica) CallCtx(ctx context.Context, entryName string, params ...any) ([]any, error) {
	return r.CallSession(ctx, "", 0, entryName, params)
}

// CallSession is the session-aware serve surface the rpc layer dispatches
// to: propose the call, wait for quorum commit and local apply, return the
// applied result. A retry of an already-committed (client, seq) — the
// failover case — short-circuits to the replicated session table.
// Read-only entries (Config.ReadOnly) take the ReadIndex fast path and
// never touch the log; everything else enters the combining queue, where
// concurrent proposals coalesce into one append+sync+replicate round.
func (r *Replica) CallSession(ctx context.Context, client string, seq uint64, entryName string, params []any) ([]any, error) {
	if client != "" {
		if res, err, ok := r.sessions.Lookup(client, seq); ok {
			return res, err
		}
	}
	if ro := r.cfg.ReadOnly; ro != nil && ro(entryName) {
		return r.readCall(ctx, entryName, params)
	}
	p := proposal{entry: entryName, client: client, seq: seq, params: params, ch: make(chan result, 1)}
	r.propMu.Lock()
	r.propQ = append(r.propQ, p)
	if r.combining {
		r.propMu.Unlock()
	} else {
		// First proposer in becomes the combiner; it drains the queue —
		// including proposals that arrive while it works — before retiring,
		// so nothing is ever left parked without a drainer.
		r.combining = true
		r.propMu.Unlock()
		r.combineRounds()
	}

	select {
	case res := <-p.ch:
		return res.results, res.err
	case <-ctx.Done():
		// The proposal stays in the log; if it commits, the session table
		// remembers it and the client's retry replays the result.
		return nil, ctx.Err()
	case <-r.done:
		return nil, ErrClosed
	}
}

// combineRounds drains the proposal queue in bounded windows until it is
// empty, then hands the combiner role back. Runs on the first proposer's
// goroutine — the combined round's latency is the round the proposer was
// paying anyway, minus everyone else's.
func (r *Replica) combineRounds() {
	var batch []proposal
	for {
		r.propMu.Lock()
		n := len(r.propQ)
		if n == 0 {
			r.combining = false
			r.propMu.Unlock()
			return
		}
		if n > combineWindow {
			n = combineWindow
		}
		batch = append(batch[:0], r.propQ[:n]...)
		rest := copy(r.propQ, r.propQ[n:])
		for i := rest; i < len(r.propQ); i++ {
			r.propQ[i] = proposal{} // drop references for GC
		}
		r.propQ = r.propQ[:rest]
		r.propMu.Unlock()
		r.commitRound(batch)
	}
}

// commitRound appends one window of combined proposals: one r.mu hold for
// all the appends, ONE journal sync, one replication kick — the per-round
// costs PR 8 paid per call, now amortized across the window.
func (r *Replica) commitRound(batch []proposal) {
	if m := r.cfg.Metrics; m != nil {
		m.ReplProposals.Add(uint64(len(batch)))
		if len(batch) > 1 {
			m.ReplCombined.Add(uint64(len(batch) - 1))
		}
		m.ReplRounds.Inc()
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		failProposals(batch, ErrClosed)
		return
	}
	if r.role != Leader {
		leader := r.leaderID
		id := r.cfg.ID
		r.mu.Unlock()
		if leader != "" {
			failProposals(batch, fmt.Errorf("%s: try %s: %w", id, leader, wire.ErrNotLeader))
		} else {
			failProposals(batch, fmt.Errorf("%s: no leader elected: %w", id, wire.ErrNotLeader))
		}
		return
	}
	term := r.term
	first := r.lastIndex() + 1
	for i := range batch {
		e := entry{Term: term, Entry: batch[i].entry, Client: batch[i].client, Seq: batch[i].seq, Params: batch[i].params}
		idx := r.appendLocalLocked(e)
		r.waiters[idx] = append(r.waiters[idx], waiter{term: term, ch: batch[i].ch})
	}
	last := r.lastIndex()
	var lsn uint64 // the run's highest: one WaitSynced, one group-committed fsync
	var err error
	for idx := first; idx <= last && err == nil; idx++ {
		lsn, err = r.persistAppendLocked(idx, r.log[idx-r.snapIndex-1])
	}
	r.mu.Unlock()
	if err := r.waitSynced(lsn, err); err != nil {
		// A refused record or a failed sync. The entries stay in the log and
		// may yet commit; pull the waiters out first so a later apply cannot
		// double-resolve them, then fail the callers — their retries hit the
		// session table if the entries do land.
		r.mu.Lock()
		for idx := first; idx <= last; idx++ {
			delete(r.waiters, idx)
		}
		r.mu.Unlock()
		failProposals(batch, fmt.Errorf("replica %s: journal: %w", r.cfg.ID, err))
		return
	}
	r.kickPeers()
	r.maybeAdvanceCommit()
}

func failProposals(batch []proposal, err error) {
	for i := range batch {
		batch[i].ch <- result{err: err}
	}
}

// readCall is the ReadIndex fast path: capture the commit frontier,
// confirm we are still the leader with one quorum round (carried by the
// next AppendEntries frame to each peer: an entry frame or heartbeat when
// one is due, an empty frame at prev 0 when not), wait for the local apply
// frontier to reach the captured index, and serve from local state — no
// log append, no fsync, no per-read replication. Failures are typed
// retryable (wire.ErrNotLeader) so DialMulti clients bounce exactly as
// they do for writes.
func (r *Replica) readCall(ctx context.Context, entryName string, params []any) ([]any, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if r.role != Leader {
		leader := r.leaderID
		r.mu.Unlock()
		if leader != "" {
			return nil, fmt.Errorf("%s: try %s: %w", r.cfg.ID, leader, wire.ErrNotLeader)
		}
		return nil, fmt.Errorf("%s: no leader elected: %w", r.cfg.ID, wire.ErrNotLeader)
	}
	if r.commitIndex < r.barrierIdx {
		// Fresh leadership: until the accession barrier commits, our
		// commitIndex may predate entries a predecessor committed, so a
		// read here could miss acknowledged writes. Bounce retryable.
		r.mu.Unlock()
		if m := r.cfg.Metrics; m != nil {
			m.ReplReadRetries.Inc()
		}
		return nil, fmt.Errorf("%s: accession barrier uncommitted: %w", r.cfg.ID, wire.ErrNotLeader)
	}
	readIndex := r.commitIndex
	var confirm chan error
	if len(r.peers) > 0 {
		r.confirmSeq++
		rw := &readWait{confirm: r.confirmSeq, ch: make(chan error, 1)}
		r.reads = append(r.reads, rw)
		confirm = rw.ch
	}
	r.mu.Unlock()

	if confirm != nil {
		if m := r.cfg.Metrics; m != nil {
			m.ReplReadRounds.Inc()
		}
		r.kickPeers()
		select {
		case err := <-confirm:
			if err != nil {
				if m := r.cfg.Metrics; m != nil {
					m.ReplReadRetries.Inc()
				}
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-r.done:
			return nil, ErrClosed
		}
	}
	if err := r.awaitApplied(ctx, readIndex); err != nil {
		return nil, err
	}
	if s := r.cfg.Sequencer; s != nil {
		// The confirmed-but-not-yet-served window: the conformance
		// leader-kill schedule injects its crash here.
		s.Point(core.SeqMgrStart, r.cfg.Group, entryName, readIndex)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.mu.Unlock()
	if m := r.cfg.Metrics; m != nil {
		m.ReplReads.Inc()
	}
	return r.obj.CallCtx(ctx, entryName, params...)
}

// awaitApplied parks until the apply frontier reaches idx (the apply loop
// closes the channel) — the "wait for applied ≥ readIndex" leg of
// ReadIndex.
func (r *Replica) awaitApplied(ctx context.Context, idx uint64) error {
	r.mu.Lock()
	if r.applied >= idx {
		r.mu.Unlock()
		return nil
	}
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	ch := make(chan struct{})
	r.readApply[idx] = append(r.readApply[idx], ch)
	r.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-r.done:
		return ErrClosed
	}
}

// advanceReads resolves parked reads whose confirmation round a quorum of
// the group has acknowledged. Called from peer ack handlers whenever a
// peer's acked round advances.
func (r *Replica) advanceReads() {
	r.mu.Lock()
	if len(r.reads) == 0 || r.role != Leader {
		r.mu.Unlock()
		return
	}
	var buf [smallGroup]uint64
	confs := buf[:0]
	for _, p := range r.peers {
		p.mu.Lock()
		confs = append(confs, p.confirmed)
		p.mu.Unlock()
	}
	// With self as a free ack, the quorum-th member's round is the
	// (need-1)-th highest peer ack.
	sortDescending(confs)
	need := (len(r.peers)+1)/2 + 1
	acked := confs[need-2]
	kept := r.reads[:0]
	var resolved []*readWait
	for _, rw := range r.reads {
		if rw.confirm <= acked {
			resolved = append(resolved, rw)
		} else {
			kept = append(kept, rw)
		}
	}
	for i := len(kept); i < len(r.reads); i++ {
		r.reads[i] = nil
	}
	r.reads = kept
	r.mu.Unlock()
	for _, rw := range resolved {
		rw.ch <- nil
	}
}

// failReadsLocked fails every parked read — leadership is gone (or the
// member is closing), so their confirmation rounds can never complete.
// r.mu held.
func (r *Replica) failReadsLocked(err error) {
	for _, rw := range r.reads {
		rw.ch <- fmt.Errorf("%s: read abandoned: %w", r.cfg.ID, err)
	}
	r.reads = nil
}

// resolveReadApplyLocked releases reads waiting on the apply frontier;
// r.mu held, called by the apply loop after advancing r.applied.
func (r *Replica) resolveReadApplyLocked() {
	for idx, chs := range r.readApply {
		if idx <= r.applied {
			delete(r.readApply, idx)
			for _, ch := range chs {
				close(ch)
			}
		}
	}
}

// applyBatch bounds how many committed entries one apply-loop drain
// executes between lock holds — big enough to amortize the lock traffic,
// small enough that snapshot installs and Close stay responsive.
const applyBatch = 256

// applyLoop is the replicated state machine: commits are executed against
// the live object strictly in log order, on one goroutine — log order IS
// execution order, on every member, which is what carries per-key FIFO
// across a failover. The loop drains committed runs in batches: one lock
// hold to collect the run, one to advance the frontier and gather every
// resolved waiter, instead of two lock round-trips per entry.
func (r *Replica) applyLoop() {
	defer r.wg.Done()
	var todo []entry
	var resBuf []result
	for {
		r.mu.Lock()
		for r.applied >= r.commitIndex && r.pendingSnap == nil && !r.closed {
			r.applyCond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		if snap := r.pendingSnap; snap != nil {
			r.pendingSnap = nil
			r.mu.Unlock()
			r.installSnapshot(snap)
			continue
		}
		start := r.applied + 1
		end := r.commitIndex
		if end-start >= applyBatch {
			end = start + applyBatch - 1
		}
		todo = todo[:0]
		for idx := start; idx <= end; idx++ {
			e, ok := r.entryAt(idx)
			if !ok {
				// Compacted away under us (snapshot install raced); stop the
				// run and let the pendingSnap branch catch up.
				break
			}
			todo = append(todo, e)
		}
		r.mu.Unlock()
		if len(todo) == 0 {
			continue
		}

		resBuf = resBuf[:0]
		for i := range todo {
			e := &todo[i]
			idx := start + uint64(i)
			if s := r.cfg.Sequencer; s != nil {
				s.Point(core.SeqMgrExecute, r.cfg.Group, e.Entry, idx)
			}
			var res result
			switch {
			case e.Entry == "":
				// No-op barrier: commits the term, resolves nothing but the
				// waiters' ordering guarantees.
			case e.Client != "":
				if results, err, ok := r.sessions.Lookup(e.Client, e.Seq); ok {
					// The same logical call was committed twice — a failover
					// re-propose whose first copy also survived. Apply-time
					// dedup is what "the dedup cache doubles as the session
					// table" buys: replay, never re-execute.
					res = result{results: results, err: err}
				} else {
					results, err := r.obj.CallCtx(context.Background(), e.Entry, e.Params...)
					r.sessions.Record(e.Client, e.Seq, results, err)
					res = result{results: results, err: err}
				}
			default:
				results, err := r.obj.CallCtx(context.Background(), e.Entry, e.Params...)
				res = result{results: results, err: err}
			}
			resBuf = append(resBuf, res)
		}

		r.mu.Lock()
		r.applied = start + uint64(len(todo)) - 1
		var resolved []waiter
		var resolvedRes []result
		for i := range todo {
			idx := start + uint64(i)
			if ws, ok := r.waiters[idx]; ok {
				delete(r.waiters, idx)
				for _, w := range ws {
					resolved = append(resolved, w)
					resolvedRes = append(resolvedRes, resBuf[i])
				}
			}
		}
		r.resolveReadApplyLocked()
		compact := r.cfg.Snapshot != nil && r.applied-r.snapIndex > uint64(r.cfg.snapshotThreshold)
		r.mu.Unlock()
		for i, w := range resolved {
			w.ch <- resolvedRes[i]
		}
		if compact {
			r.compact()
		}
	}
}

// installSnapshot restores object state and sessions from a leader
// snapshot — the catch-up path of a member that fell behind a compaction.
// Runs on the apply loop so it can never race an entry execution.
func (r *Replica) installSnapshot(snap *snapshotPayload) {
	if r.cfg.Restore != nil {
		if err := r.cfg.Restore(snap.State); err != nil {
			r.logf("restore snapshot@%d: %v", snap.LastIndex, err)
			return
		}
	}
	r.sessions.Load(snap.Sessions)
	r.mu.Lock()
	if snap.LastIndex > r.applied {
		r.applied = snap.LastIndex
	}
	r.mu.Unlock()
	r.logf("installed snapshot through index %d (term %d)", snap.LastIndex, snap.LastTerm)
}

// compact takes a state snapshot at the applied frontier and drops the log
// prefix it covers. The blob is retained for InstallSnapshot catch-up of
// stragglers; it reaches disk with the group's next checkpoint, not as a
// log record (storage.go).
func (r *Replica) compact() {
	state, err := r.cfg.Snapshot()
	if err != nil {
		r.logf("snapshot: %v", err)
		return
	}
	sessions := r.sessions.Dump()
	r.mu.Lock()
	// The apply loop is the only mutator of applied, so the state captured
	// above is exactly the state at r.applied.
	last := r.applied
	if last <= r.snapIndex {
		r.mu.Unlock()
		return
	}
	lastTerm, _ := r.termAt(last)
	blob, err := (&snapshotPayload{
		LastIndex: last, LastTerm: lastTerm, State: state, Sessions: sessions,
	}).encode()
	if err != nil {
		r.mu.Unlock()
		r.logf("encode snapshot: %v", err)
		return
	}
	r.log = append([]entry(nil), r.log[last-r.snapIndex:]...)
	r.snapIndex, r.snapTerm, r.snapBlob = last, lastTerm, blob
	r.mu.Unlock()
	r.logf("compacted log through index %d", last)
}

// Close stops the member: waiters fail, peers disconnect, goroutines
// drain. The underlying object is not touched — it belongs to the caller.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	ws := r.waiters
	r.waiters = make(map[uint64][]waiter)
	r.failReadsLocked(ErrClosed)
	r.mu.Unlock()
	close(r.done)
	r.applyCond.Broadcast()
	for _, list := range ws {
		for _, w := range list {
			w.ch <- result{err: ErrClosed}
		}
	}
	for _, p := range r.peers {
		p.rem.Close()
	}
	r.wg.Wait()
}

// --- log helpers (r.mu held) ---

func (r *Replica) lastIndex() uint64 { return r.snapIndex + uint64(len(r.log)) }

// termAt returns the term of the entry at idx; ok is false when idx is
// compacted below the snapshot floor (and not the floor itself).
func (r *Replica) termAt(idx uint64) (uint64, bool) {
	switch {
	case idx == r.snapIndex:
		return r.snapTerm, true
	case idx < r.snapIndex || idx > r.lastIndex():
		return 0, false
	default:
		return r.log[idx-r.snapIndex-1].Term, true
	}
}

func (r *Replica) entryAt(idx uint64) (entry, bool) {
	if idx <= r.snapIndex || idx > r.lastIndex() {
		return entry{}, false
	}
	return r.log[idx-r.snapIndex-1], true
}

func (r *Replica) appendLocalLocked(e entry) uint64 {
	r.log = append(r.log, e)
	return r.lastIndex()
}

// truncateFromLocked drops log entries at and above idx (a conflict with
// the leader's log) and fails their waiters: those proposals are
// definitively not committing under this lineage. Clients retry with the
// same seq; if the entry somehow committed on the other lineage first,
// the session table replays it.
func (r *Replica) truncateFromLocked(idx uint64) {
	if idx > r.lastIndex() {
		return
	}
	r.log = r.log[:idx-r.snapIndex-1]
	for wIdx, list := range r.waiters {
		if wIdx < idx {
			continue
		}
		delete(r.waiters, wIdx)
		for _, w := range list {
			w.ch <- result{err: fmt.Errorf("%s: proposal at %d overwritten: %w", r.cfg.ID, wIdx, wire.ErrNotLeader)}
		}
	}
}

// logf is lock-free (callers may hold r.mu).
func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf("replica "+r.cfg.ID+": "+format, args...)
	}
}

func idHash(id string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}
