package replica

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/rpc"
	"repro/internal/wal"
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

// checkpoint is the group's contribution to a store snapshot: everything
// fold would rebuild from the records at or below the snapshot's floor.
type checkpoint struct {
	Term, SnapIndex, SnapTerm uint64
	Vote                      string
	SnapBlob                  []byte
	Log                       []entry
}

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
	f := encodeEntry(e)
	return r.persistLocked(subAppend, idx, f[0], f[1], f[2], f[3], f[4])
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
		snap, err := decodeGob[snapshotPayload](r.snapBlob)
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

// checkpoint is the store's Snapshot hook. The store read its floor BEFORE
// calling it, so this state may already reflect records above the floor.
func (r *Replica) checkpoint() ([]byte, error) {
	r.mu.Lock()
	cp := checkpoint{
		Term: r.term, Vote: r.votedFor,
		SnapIndex: r.snapIndex, SnapTerm: r.snapTerm, SnapBlob: r.snapBlob,
		Log: append([]entry(nil), r.log...), // entries are immutable once appended
	}
	r.mu.Unlock()
	return encodeGob(&cp)
}

// restoreCheckpoint is the store's Restore hook; it runs before any fold.
func (r *Replica) restoreCheckpoint(blob []byte) error {
	cp, err := decodeGob[checkpoint](blob)
	if err != nil {
		return err
	}
	r.term, r.votedFor = cp.Term, cp.Vote
	r.snapIndex, r.snapTerm, r.snapBlob = cp.SnapIndex, cp.SnapTerm, cp.SnapBlob
	r.log = cp.Log
	return nil
}

// fold is the store's Replay hook: apply one journaled record, in LSN
// order. Idempotent over records the checkpoint already reflects: state is
// last-write-wins, indexes at or below the floor are skipped, an append at
// an occupied index truncates first (the records that follow re-append it).
func (r *Replica) fold(sub string, p []any) error {
	switch sub {
	case subState:
		term, err := asU64(p, 0)
		vote, err2 := asStr(p, 1)
		if err = firstErr(err, err2, arity(p, 2)); err != nil {
			return fmt.Errorf("state: %w", err)
		}
		r.term, r.votedFor = term, vote
	case subAppend:
		idx, err := asU64(p, 0)
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
		idx, err := asU64(p, 0)
		if err = firstErr(err, arity(p, 1)); err != nil {
			return fmt.Errorf("truncate: %w", err)
		}
		if idx > r.snapIndex && idx <= r.lastIndex() {
			r.log = r.log[:idx-r.snapIndex-1]
		}
	case subSnapshot:
		lastIdx, err := asU64(p, 0)
		lastTerm, err2 := asU64(p, 1)
		blob, err3 := asBytes(p, 2)
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

// encodeGob and decodeGob are the blob codec of both payloads a member
// stores: the catch-up snapshot and the store checkpoint.
func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("replica: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

func decodeGob[T any](blob []byte) (*T, error) {
	var v T
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&v); err != nil {
		return nil, fmt.Errorf("replica: decode %T: %w", v, err)
	}
	return &v, nil
}
