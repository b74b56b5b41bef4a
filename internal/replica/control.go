package replica

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// control is the consensus endpoint a member publishes under
// ControlName(group): votes, append-entries batches and snapshot installs
// arrive as ordinary rpc requests — wire.Frames on the same pipelined
// transport, coalesced into the same batched flushes, guarded by the same
// CRCs as client traffic. Handlers type-check every parameter: the codec
// only guarantees frames are structurally legal, and a hostile or
// corrupted-but-CRC-colliding peer must get an error, not a panic.
type control struct {
	r *Replica
}

// CallCtx implements rpc.Callable for the four consensus procedures.
func (c *control) CallCtx(_ context.Context, entry string, params ...any) ([]any, error) {
	switch entry {
	case "RequestVote":
		return c.requestVote(params)
	case "AppendEntries":
		return c.appendEntries(params)
	case "Heartbeat":
		return c.heartbeat(params)
	case "InstallSnapshot":
		return c.installSnapshot(params)
	default:
		return nil, fmt.Errorf("replica: %w: %q", core.ErrUnknownEntry, entry)
	}
}

// CallSession is the node's serve surface for peer messages, which carry
// the sending member's link identity. The endpoint owns their at-most-once,
// so the node keeps no dedup entry for them: a consensus message is
// idempotent by term and index — a repeated vote re-grants only to the same
// candidate, and a repeated append finds its entries already in the log.
func (c *control) CallSession(ctx context.Context, _ string, _ uint64, entry string, params []any) ([]any, error) {
	return c.CallCtx(ctx, entry, params...)
}

// requestVote: params [term, candidateID, lastLogIndex, lastLogTerm],
// reply [term, granted]. The vote is durable before it is granted — a
// member that promises, crashes and restarts must keep its promise — and a
// vote the disk refused is answered with that error, never a grant.
func (c *control) requestVote(params []any) ([]any, error) {
	term, err := asU64(params, 0)
	candidate, err2 := asStr(params, 1)
	lastIdx, err3 := asU64(params, 2)
	lastTerm, err4 := asU64(params, 3)
	if err = firstErr(err, err2, err3, err4); err != nil {
		return nil, fmt.Errorf("replica: RequestVote: %w", err)
	}
	r := c.r
	r.mu.Lock()
	if term > r.term {
		r.term = term
		r.votedFor = ""
		r.role = Follower
		r.leaderID = ""
		r.failReadsLocked(wire.ErrNotLeader)
	}
	if term < r.term {
		reply := []any{r.term, false}
		r.mu.Unlock()
		return reply, nil
	}
	myLastIdx := r.lastIndex()
	myLastTerm, _ := r.termAt(myLastIdx)
	upToDate := lastTerm > myLastTerm || (lastTerm == myLastTerm && lastIdx >= myLastIdx)
	grant := (r.votedFor == "" || r.votedFor == candidate) && upToDate
	var lsn uint64
	if grant {
		r.votedFor = candidate
		r.resetElectionDeadline()
		lsn, err = r.persistStateLocked()
	}
	curTerm := r.term
	r.mu.Unlock()
	if err := r.waitSynced(lsn, err); err != nil {
		return nil, fmt.Errorf("replica: RequestVote: %w", err)
	}
	if grant {
		r.logf("granted vote to %s for t%d", candidate, term)
	}
	return []any{curTerm, grant}, nil
}

// appendEntries: params [term, leaderID, prevIndex, prevTerm,
// leaderCommit, entries], reply [term, success, conflictIndex]. A success
// reply moves the leader's matchIndex to prevIndex+len(entries) and counts
// toward quorum, so "acknowledged" must mean "on stable storage" — the same
// contract client acks honor (docs/DURABILITY.md): the log is synced through
// every record this member journaled before the reply leaves, entries an
// earlier frame delivered included. A record the disk refuses stays out of
// the log, and the frame is answered with the refusal.
func (c *control) appendEntries(params []any) ([]any, error) {
	term, err := asU64(params, 0)
	leader, err2 := asStr(params, 1)
	prev, err3 := asU64(params, 2)
	prevTerm, err4 := asU64(params, 3)
	commit, err5 := asU64(params, 4)
	batch, err6 := asSlice(params, 5)
	if err = firstErr(err, err2, err3, err4, err5, err6); err != nil {
		return nil, fmt.Errorf("replica: AppendEntries: %w", err)
	}
	entries := make([]entry, len(batch))
	for i, raw := range batch {
		e, derr := decodeEntry(raw)
		if derr != nil {
			return nil, fmt.Errorf("replica: AppendEntries: entry %d: %w", i, derr)
		}
		entries[i] = e
	}

	r := c.r
	r.mu.Lock()
	if term < r.term {
		reply := []any{r.term, false, uint64(0)}
		r.mu.Unlock()
		return reply, nil
	}
	stateDirty := term > r.term
	r.term = term
	if r.role != Follower {
		r.role = Follower
		r.failReadsLocked(wire.ErrNotLeader)
	}
	if stateDirty {
		r.votedFor = ""
	}
	r.leaderID = leader
	r.resetElectionDeadline()

	// Pipelined frames are served on independent goroutines, so a later
	// frame can overtake its predecessor on the way in. If this frame
	// starts past our tail, give the in-flight predecessor a bounded
	// moment to land before hinting the leader into a rewind — turning
	// the common reorder into a sub-millisecond wait instead of a
	// resend burst.
	for spins := 0; prev > r.lastIndex() && prev > r.snapIndex && r.term == term && !r.closed && spins < 16; spins++ {
		r.mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		r.mu.Lock()
	}
	if r.term != term {
		// A newer term moved in while we waited; this frame is stale.
		reply := []any{r.term, false, uint64(0)}
		r.mu.Unlock()
		return reply, nil
	}

	// Entries at or below our snapshot floor are already committed and
	// applied here; trim them off rather than refusing the batch.
	if prev < r.snapIndex {
		trim := r.snapIndex - prev
		if trim >= uint64(len(entries)) {
			return r.replyLocked(stateDirty, r.term, true, uint64(0))
		}
		entries = entries[trim:]
		prev = r.snapIndex
		prevTerm = r.snapTerm
	}
	if prev > r.lastIndex() {
		// We are missing everything before this batch: tell the leader
		// where our log ends so it backs off in one hop.
		return r.replyLocked(stateDirty, r.term, false, r.lastIndex()+1)
	}
	if t, ok := r.termAt(prev); !ok || t != prevTerm {
		// Conflict at prev: hint the first index of the conflicting term
		// so the leader skips the whole run instead of probing one by one.
		conflict := prev
		if ok {
			for conflict > r.snapIndex+1 {
				ct, cok := r.termAt(conflict - 1)
				if !cok || ct != t {
					break
				}
				conflict--
			}
		}
		return r.replyLocked(stateDirty, r.term, false, conflict)
	}

	// match is the last index this frame has shown to agree with the
	// leader's log: prev, then each entry as it is found or appended.
	// Commit advances no further. Past match lie entries no leader checked,
	// whether the batch ended there or a refused record cut it short.
	match := prev
	if stateDirty {
		_, err = r.persistStateLocked()
	}
	for i := 0; i < len(entries) && err == nil; i++ {
		e, idx := entries[i], prev+1+uint64(i)
		if idx <= r.lastIndex() {
			if t, _ := r.termAt(idx); t == e.Term {
				match = idx
				continue // already have it
			}
			// Conflicting suffix: ours loses. Persist the truncation so
			// recovery rebuilds the same log shape, and fail any local
			// waiters parked on the overwritten proposals. A truncation the
			// disk refuses still happens here: the suffix is dead under this
			// leader, and a restart that finds it again holds a log this
			// member once had.
			_, err = r.persistLocked(subTruncate, idx)
			r.truncateFromLocked(idx)
			if err != nil {
				break
			}
		}
		if _, err = r.persistAppendLocked(idx, e); err == nil {
			r.appendLocalLocked(e)
			match = idx
		}
	}
	if commit = min(commit, match); commit > r.commitIndex {
		r.commitIndex = commit
		r.applyCond.Signal()
	}
	curTerm, lsn := r.term, r.journaled
	r.mu.Unlock()
	if err := r.waitSynced(lsn, err); err != nil {
		return nil, fmt.Errorf("replica: AppendEntries: %w", err)
	}
	return []any{curTerm, true, uint64(0)}, nil
}

// replyLocked answers an AppendEntries that appends nothing: release r.mu
// and, when the frame raised our term, make that durable first — a term the
// disk refused is answered with the refusal.
func (r *Replica) replyLocked(stateDirty bool, reply ...any) ([]any, error) {
	var lsn uint64
	var err error
	if stateDirty {
		lsn, err = r.persistStateLocked()
	}
	r.mu.Unlock()
	if err := r.waitSynced(lsn, err); err != nil {
		return nil, fmt.Errorf("replica: AppendEntries: %w", err)
	}
	return reply, nil
}

// heartbeat: params [term, leaderID, confirm], reply [term, ok, confirm].
// A pure leadership probe for the ReadIndex fast path: no prev/entries
// consistency check, no commit advance — just "do you still recognize my
// term", with the confirmation round echoed back so the leader can count
// this reply toward a read quorum. Commit advertisement stays on
// AppendEntries, whose prev check is what makes advancing commit safe; a
// heartbeat that advanced commit over an unverified log could apply the
// wrong entries.
func (c *control) heartbeat(params []any) ([]any, error) {
	term, err := asU64(params, 0)
	leader, err2 := asStr(params, 1)
	confirm, err3 := asU64(params, 2)
	if err = firstErr(err, err2, err3); err != nil {
		return nil, fmt.Errorf("replica: Heartbeat: %w", err)
	}
	r := c.r
	r.mu.Lock()
	if term < r.term {
		reply := []any{r.term, false, confirm}
		r.mu.Unlock()
		return reply, nil
	}
	stateDirty := term > r.term
	r.term = term
	if r.role != Follower {
		r.role = Follower
		r.failReadsLocked(wire.ErrNotLeader)
	}
	if stateDirty {
		r.votedFor = ""
	}
	r.leaderID = leader
	r.resetElectionDeadline()
	var lsn uint64
	if stateDirty {
		lsn, err = r.persistStateLocked()
	}
	curTerm := r.term
	r.mu.Unlock()
	// The term bump is a promise (no votes below it); sync it before the
	// reply leaves, like every other consensus acknowledgement.
	if err := r.waitSynced(lsn, err); err != nil {
		return nil, fmt.Errorf("replica: Heartbeat: %w", err)
	}
	return []any{curTerm, true, confirm}, nil
}

// installSnapshot: params [term, leaderID, lastIndex, lastTerm, blob],
// reply [term]. The snapshot is journaled before the reply; the actual
// state restore happens on the apply loop, where it cannot race an entry
// execution.
func (c *control) installSnapshot(params []any) ([]any, error) {
	term, err := asU64(params, 0)
	leader, err2 := asStr(params, 1)
	lastIdx, err3 := asU64(params, 2)
	lastTerm, err4 := asU64(params, 3)
	blob, err5 := asBytes(params, 4)
	if err = firstErr(err, err2, err3, err4, err5); err != nil {
		return nil, fmt.Errorf("replica: InstallSnapshot: %w", err)
	}
	snap, err := decodeGob[snapshotPayload](blob)
	if err != nil {
		return nil, fmt.Errorf("replica: InstallSnapshot: %w", err)
	}
	if snap.LastIndex != lastIdx || snap.LastTerm != lastTerm {
		return nil, fmt.Errorf("replica: InstallSnapshot: envelope %d/t%d disagrees with payload %d/t%d",
			lastIdx, lastTerm, snap.LastIndex, snap.LastTerm)
	}

	r := c.r
	r.mu.Lock()
	if term < r.term {
		reply := []any{r.term}
		r.mu.Unlock()
		return reply, nil
	}
	stateDirty := term > r.term
	r.term = term
	if r.role != Follower {
		r.failReadsLocked(wire.ErrNotLeader)
	}
	r.role = Follower
	if stateDirty {
		r.votedFor = ""
	}
	r.leaderID = leader
	r.resetElectionDeadline()
	if lastIdx <= r.commitIndex {
		// Stale: we already have (or will apply) everything it covers.
		reply := []any{r.term}
		r.mu.Unlock()
		return reply, nil
	}
	// The snapshot supersedes the log wholesale; conflicting local
	// proposals (there should be none on a follower this far behind) fail.
	r.truncateFromLocked(r.snapIndex + 1)
	r.log = nil
	r.snapIndex, r.snapTerm, r.snapBlob = lastIdx, lastTerm, blob
	r.commitIndex = lastIdx
	r.pendingSnap = snap
	lsn, err := r.persistLocked(subSnapshot, lastIdx, lastTerm, blob)
	if stateDirty && err == nil {
		lsn, err = r.persistStateLocked()
	}
	curTerm := r.term
	r.applyCond.Signal()
	r.mu.Unlock()
	if err := r.waitSynced(lsn, err); err != nil {
		return nil, fmt.Errorf("replica: InstallSnapshot: %w", err)
	}
	r.logf("accepted snapshot through %d/t%d from %s", lastIdx, lastTerm, leader)
	return []any{curTerm}, nil
}

// --- wire-shape helpers ---

// encodeEntry flattens a log entry into the nested-[]any shape the wire
// codec carries natively: [term, entry, client, seq, params].
func encodeEntry(e entry) []any {
	params := e.Params
	if params == nil {
		params = []any{}
	}
	return []any{e.Term, e.Entry, e.Client, e.Seq, params}
}

func decodeEntry(raw any) (entry, error) {
	f, ok := raw.([]any)
	if !ok || len(f) != 5 {
		return entry{}, fmt.Errorf("bad entry shape %T", raw)
	}
	term, ok1 := f[0].(uint64)
	name, ok2 := f[1].(string)
	client, ok3 := f[2].(string)
	seq, ok4 := f[3].(uint64)
	params, ok5 := f[4].([]any)
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return entry{}, fmt.Errorf("bad entry field types")
	}
	return entry{Term: term, Entry: name, Client: client, Seq: seq, Params: params}, nil
}

func asU64(params []any, i int) (uint64, error) {
	if i >= len(params) {
		return 0, fmt.Errorf("missing param %d", i)
	}
	v, ok := params[i].(uint64)
	if !ok {
		return 0, fmt.Errorf("param %d: want uint64, got %T", i, params[i])
	}
	return v, nil
}

func asStr(params []any, i int) (string, error) {
	if i >= len(params) {
		return "", fmt.Errorf("missing param %d", i)
	}
	v, ok := params[i].(string)
	if !ok {
		return "", fmt.Errorf("param %d: want string, got %T", i, params[i])
	}
	return v, nil
}

func asSlice(params []any, i int) ([]any, error) {
	if i >= len(params) {
		return nil, fmt.Errorf("missing param %d", i)
	}
	v, ok := params[i].([]any)
	if !ok {
		return nil, fmt.Errorf("param %d: want []any, got %T", i, params[i])
	}
	return v, nil
}

func asBytes(params []any, i int) ([]byte, error) {
	if i >= len(params) {
		return nil, fmt.Errorf("missing param %d", i)
	}
	v, ok := params[i].([]byte)
	if !ok {
		return nil, fmt.Errorf("param %d: want []byte, got %T", i, params[i])
	}
	return v, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// electionPatience is the in-package yardstick tests use to size
// failover waits: two full election timeouts comfortably cover one
// split vote plus the winning round.
func (r *Replica) electionPatience() time.Duration {
	return 2 * r.cfg.ElectionTimeout
}
