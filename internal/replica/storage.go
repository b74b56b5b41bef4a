package replica

import (
	"fmt"

	"repro/internal/rpc"
	"repro/internal/wal"
	"repro/internal/wire"
)

// A group is an ordinary participant of the node's wal.Store, under its
// control name: Append to journal, a checkpoint in every store snapshot,
// Recover on restart — the contract a journaled object honours
// (docs/REPLICATION.md §4). One store serves the object journals, the node's
// ack ledger AND the consensus log, so one group-committed sync covers all
// three, and pruning below a snapshot floor is safe: the checkpoint covers it.
//
// Record vocabulary (entry = sub-kind):
//
//	"state"    — hard state: [term, votedFor]
//	"append"   — log entry: [idx, term, entryName, client, seq, params]
//	"truncate" — conflict truncation, entries >= idx are dead: [idx]
//	"snapshot" — an InstallSnapshot replaced the log: [lastIdx, lastTerm,
//	             blob]. Local compaction writes NO record: the next
//	             checkpoint carries the floor; until then recovery replays
//	             the longer log.
const (
	subState    = "state"
	subAppend   = "append"
	subTruncate = "truncate"
	subSnapshot = "snapshot"
)

// persistLocked journals one consensus record; r.mu held, so journal order
// is the order the state changed. Returns the LSN to sync through (0 when
// in-memory only), or the journal's refusal: a record the disk refused
// promises nothing, so the caller must not answer as if it did.
func (r *Replica) persistLocked(sub string, params ...any) (uint64, error) {
	if r.journal == nil {
		return 0, nil
	}
	lsn, err := r.journal.Append(sub, params)
	if err != nil {
		return 0, fmt.Errorf("persist %s: %w", sub, err)
	}
	r.journaled = lsn
	return lsn, nil
}

func (r *Replica) persistStateLocked() (uint64, error) {
	return r.persistLocked(subState, r.term, r.votedFor)
}

func (r *Replica) persistAppendLocked(idx uint64, e entry) (uint64, error) {
	return r.persistLocked(subAppend, appendParams(idx, e)...)
}

// appendParams is an append record's params: [idx, term, entryName, client,
// seq, params].
func appendParams(idx uint64, e entry) []any {
	return append([]any{idx}, encodeEntry(e)...)
}

// waitSynced blocks until lsn is on stable storage (no-op when in-memory).
// It takes persistLocked's results as they come: a refusal is returned as
// is, with nothing to wait for.
func (r *Replica) waitSynced(lsn uint64, err error) error {
	if err != nil || r.cfg.Store == nil || lsn == 0 {
		return err
	}
	return r.cfg.Store.WaitSynced(lsn)
}

// recover registers the group with cfg.Store and folds what the previous
// incarnation left there — its last checkpoint, then every record above
// that floor — back into term, vote, log and snapshot floor: the promises
// it synced before acting on them. Called once from New, before any peer
// contact.
func (r *Replica) recover() error {
	if r.cfg.Store == nil {
		return nil
	}
	r.journal = r.cfg.Store.Journal(ControlName(r.cfg.Group), wal.JournalOptions{})
	if _, err := r.journal.Recover(wal.RecoverHooks{
		Restore:  r.restoreCheckpoint,
		Replay:   r.fold,
		Snapshot: r.checkpoint,
	}); err != nil {
		return fmt.Errorf("replica %s: recover: %w", r.cfg.ID, err)
	}
	// Rebuild the applied state from the recovered snapshot; the log
	// suffix beyond it re-applies once the group's next leader commits it
	// (the no-op barrier), exactly the snapshot+replay discipline of PR 6.
	if r.snapBlob != nil {
		snap, err := decodeSnapshotPayload(r.snapBlob)
		if err != nil {
			return fmt.Errorf("replica %s: recover: %w", r.cfg.ID, err)
		}
		if r.cfg.Restore != nil {
			if err := r.cfg.Restore(snap.State); err != nil {
				return fmt.Errorf("replica %s: recover: restore: %w", r.cfg.ID, err)
			}
		}
		r.sessions.Load(snap.Sessions)
		r.applied = r.snapIndex
		r.commitIndex = r.snapIndex
	}
	if r.term > 0 || r.lastIndex() > 0 {
		r.logf("recovered t%d vote=%q log=[%d..%d]", r.term, r.votedFor, r.snapIndex+1, r.lastIndex())
	}
	return nil
}

// checkpoint is the store's Snapshot hook: the group's state as the records
// fold would rebuild it from — state, snapshot when there is a floor, one
// append per log entry — in one wire list. The store read its floor BEFORE
// calling it, so this state may already reflect records above the floor.
func (r *Replica) checkpoint() ([]byte, error) {
	r.mu.Lock()
	recs := []any{[]any{subState, []any{r.term, r.votedFor}}}
	if r.snapIndex > 0 {
		recs = append(recs, []any{subSnapshot, []any{r.snapIndex, r.snapTerm, r.snapBlob}})
	}
	first, log := r.snapIndex+1, append([]entry(nil), r.log...) // entries are immutable once appended
	r.mu.Unlock()
	for i, e := range log {
		recs = append(recs, []any{subAppend, appendParams(first+uint64(i), e)})
	}
	return wire.AppendValue(nil, recs)
}

// restoreCheckpoint is the store's Restore hook; it runs before any fold,
// and folds the checkpoint's records in order. Bytes it cannot read are
// wire.ErrMalformed.
func (r *Replica) restoreCheckpoint(blob []byte) error {
	v, err := wire.DecodeValue(blob)
	recs, ok := v.([]any)
	if err != nil || !ok {
		return fmt.Errorf("%w: replica checkpoint: %v", wire.ErrMalformed, err)
	}
	for _, rec := range recs {
		f, _ := rec.([]any)
		sub, err := as[string](f, 0)
		p, err2 := as[[]any](f, 1)
		if err = firstErr(err, err2, arity(f, 2)); err == nil {
			err = r.fold(sub, p)
		}
		if err != nil {
			return fmt.Errorf("%w: replica checkpoint: %v", wire.ErrMalformed, err)
		}
	}
	return nil
}

// fold is the store's Replay hook: apply one journaled record, in LSN
// order. Idempotent over records the checkpoint already reflects: state is
// last-write-wins, indexes at or below the floor are skipped, an append at
// an occupied index truncates first (the records that follow re-append it).
func (r *Replica) fold(sub string, p []any) error {
	switch sub {
	case subState:
		term, err := as[uint64](p, 0)
		vote, err2 := as[string](p, 1)
		if err = firstErr(err, err2, arity(p, 2)); err != nil {
			return fmt.Errorf("state: %w", err)
		}
		r.term, r.votedFor = term, vote
	case subAppend:
		idx, err := as[uint64](p, 0)
		if err != nil {
			return fmt.Errorf("append: %w", err)
		}
		e, err := decodeEntry(p[1:])
		if err != nil {
			return fmt.Errorf("append@%d: %w", idx, err)
		}
		if idx <= r.snapIndex {
			return nil // compacted since
		}
		// An append at an occupied index implies the truncation the live
		// path journaled just before it; handle both shapes.
		if idx <= r.lastIndex() {
			r.log = r.log[:idx-r.snapIndex-1]
		}
		if idx != r.lastIndex()+1 {
			return fmt.Errorf("append@%d leaves a gap after %d", idx, r.lastIndex())
		}
		r.log = append(r.log, e)
	case subTruncate:
		idx, err := as[uint64](p, 0)
		if err = firstErr(err, arity(p, 1)); err != nil {
			return fmt.Errorf("truncate: %w", err)
		}
		if idx > r.snapIndex && idx <= r.lastIndex() {
			r.log = r.log[:idx-r.snapIndex-1]
		}
	case subSnapshot:
		lastIdx, err := as[uint64](p, 0)
		lastTerm, err2 := as[uint64](p, 1)
		blob, err3 := as[[]byte](p, 2)
		if err = firstErr(err, err2, err3, arity(p, 3)); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		// As on the live path, an installed snapshot supersedes the log
		// wholesale.
		if lastIdx > r.snapIndex {
			r.log = nil
			r.snapIndex, r.snapTerm, r.snapBlob = lastIdx, lastTerm, blob
		}
	default:
		return fmt.Errorf("unknown sub-kind %q", sub)
	}
	return nil
}

func arity(p []any, n int) error {
	if len(p) != n {
		return fmt.Errorf("want %d params, got %d", n, len(p))
	}
	return nil
}

// snapshotPayload is the catch-up unit a leader ships to a straggler and
// the compaction floor recovery restores from: object state plus the
// session table, TOGETHER — a snapshot that remembered an acknowledged
// call but not its effects (or vice versa) would break exactly-once.
type snapshotPayload struct {
	LastIndex uint64
	LastTerm  uint64
	State     []byte
	Sessions  []rpc.AckEntry
}

// encode is the payload's wire value: [lastIndex, lastTerm, state,
// sessions], each session the ack ledger's [client, seq, results, errMsg,
// errKind].
func (s *snapshotPayload) encode() ([]byte, error) {
	sessions := make([]any, len(s.Sessions))
	for i, a := range s.Sessions {
		sessions[i] = []any{a.Client, a.Seq, a.Results, a.ErrMsg, a.ErrKind}
	}
	return wire.AppendValue(nil, []any{s.LastIndex, s.LastTerm, s.State, sessions})
}

// decodeSnapshotPayload is encode's inverse; bytes it cannot read are
// wire.ErrMalformed.
func decodeSnapshotPayload(blob []byte) (*snapshotPayload, error) {
	v, err := wire.DecodeValue(blob)
	f, _ := v.([]any)
	last, err2 := as[uint64](f, 0)
	term, err3 := as[uint64](f, 1)
	state, err4 := as[[]byte](f, 2)
	sessions, err5 := as[[]any](f, 3)
	err = firstErr(err, err2, err3, err4, err5, arity(f, 4))
	s := &snapshotPayload{LastIndex: last, LastTerm: term, State: state}
	for _, raw := range sessions {
		t, _ := raw.([]any)
		client, err1 := as[string](t, 0)
		seq, err2 := as[uint64](t, 1)
		results, err3 := as[[]any](t, 2)
		msg, err4 := as[string](t, 3)
		kind, err5 := as[int32](t, 4)
		err = firstErr(err, err1, err2, err3, err4, err5, arity(t, 5))
		s.Sessions = append(s.Sessions, rpc.AckEntry{Client: client, Seq: seq, Results: results, ErrMsg: msg, ErrKind: kind})
	}
	if err != nil {
		return nil, fmt.Errorf("%w: replica snapshot: %v", wire.ErrMalformed, err)
	}
	return s, nil
}
