package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// JournalOptions configures one object's journal.
type JournalOptions struct {
	// Skip excludes an entry from the durable ledger (read-only entries,
	// the snapshot entry itself). Skipped entries cost nothing on the hot
	// path and are re-executed, not replayed, if retried across a crash.
	Skip func(entry string) bool
	// Wait makes WaitDurable block local awaiters until the outcome record
	// is synced. Leave false when the object is served over rpc: the node's
	// ack record (AckLedger) is appended after the outcome in the same log,
	// so the rpc layer's single pre-response sync covers both and the extra
	// wait here would just double the fsyncs.
	Wait bool
}

// RecoverHooks are the participant-side callbacks for crash recovery and
// snapshots. All three operate on the participant's public surface; the
// wal layer never sees its internals.
type RecoverHooks struct {
	// Restore loads a state blob captured by Snapshot, before replay.
	Restore func(data []byte) error
	// Replay re-executes one journaled record; idempotently, because the
	// restored blob may already reflect it (the snapshot floor is fuzzy).
	Replay func(entry string, params []any) error
	// Snapshot captures the participant's state for future checkpoints
	// (typically by calling a manager-exclusive entry so the blob is
	// consistent). Whoever journals records must provide it: a store
	// snapshot prunes every record at or below its floor, so a nil hook is
	// pure replay only while the store runs with SnapshotEvery 0.
	Snapshot func() ([]byte, error)
}

// ObjectJournal journals one object's call outcomes. It satisfies
// core.Journal structurally; core never imports this package, mirroring
// how core.Sequencer keeps the disabled path a nil field check.
type ObjectJournal struct {
	s    *Store
	name string
	opts JournalOptions

	replaying atomic.Bool

	mu   sync.Mutex
	snap func() ([]byte, error)
	// err is sticky: once an append fails the journal reports it from
	// WaitDurable so no caller acknowledges a transition that never hit
	// the log.
	err error
}

// Journal creates (or returns) the journal for the named object. Create
// the object with this journal in its ObjectOptions, then call Recover
// before serving traffic. Snapshots ask participants for their checkpoints
// in the order they were first registered here.
func (s *Store) Journal(name string, opts JournalOptions) *ObjectJournal {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.journals[name]; ok {
		return j
	}
	j := &ObjectJournal{s: s, name: name, opts: opts}
	s.journals[name] = j
	s.order = append(s.order, j)
	return j
}

func (j *ObjectJournal) skips(entry string) bool {
	return j.opts.Skip != nil && j.opts.Skip(entry)
}

// Recover restores the participant from the newest snapshot and replays
// every record it journaled above the floor, in LSN order. Outcomes
// recorded while replaying are suppressed (the log already has them). It
// returns the number of records replayed. Store snapshots defer until every
// name the previous incarnation left state under has been through Recover —
// all the way through: the name is claimed only once the Snapshot hook is in
// place, so a snapshot another participant's appends trigger meanwhile cannot
// prune this one's records from under a half-restored state.
func (j *ObjectJournal) Recover(h RecoverHooks) (int, error) {
	j.s.mu.Lock()
	blob, hasBlob := j.s.snapState[j.name]
	pending := j.s.byObject[j.name]
	j.s.mu.Unlock()

	j.replaying.Store(true)
	defer j.replaying.Store(false)

	if hasBlob && h.Restore != nil {
		if err := h.Restore(blob); err != nil {
			return 0, fmt.Errorf("wal: restore %s: %w", j.name, err)
		}
	}
	replayed := 0
	if h.Replay != nil {
		for _, r := range pending {
			if err := h.Replay(r.Entry, r.Params); err != nil {
				return replayed, fmt.Errorf("wal: replay %s.%s (lsn %d): %w", j.name, r.Entry, r.LSN, err)
			}
			replayed++
		}
	}

	j.mu.Lock()
	j.snap = h.Snapshot
	j.mu.Unlock()
	j.s.mu.Lock()
	delete(j.s.byObject, j.name)
	j.s.mu.Unlock()
	return replayed, nil
}

// RecordOutcome implements core.Journal: journal one delivered call
// outcome and return the LSN local awaiters should wait on (0 = nothing to
// wait for). Failed calls are not journaled — they made no state
// transition to replay.
func (j *ObjectJournal) RecordOutcome(entry string, callID uint64, params, results []any, callErr error) uint64 {
	if callErr != nil || j.replaying.Load() || j.skips(entry) {
		return 0
	}
	lsn, err := j.Append(entry, params)
	if err != nil || !j.opts.Wait {
		return 0
	}
	return lsn
}

// Append journals one record — entry names its type, params are what
// Recover hands the Replay hook — and returns the LSN to WaitSynced on
// before acting on it. A participant with a vocabulary of its own calls it
// directly (Skip filters call outcomes only). A failure is sticky (see err).
func (j *ObjectJournal) Append(entry string, params []any) (uint64, error) {
	lsn, err := j.s.append(&Record{Kind: KindOutcome, Object: j.name, Entry: entry, Params: params})
	if err != nil {
		j.mu.Lock()
		j.err = err
		j.mu.Unlock()
	}
	return lsn, err
}

// WaitDurable implements core.Journal: block until lsn is on stable
// storage (or report the journal's sticky append error).
func (j *ObjectJournal) WaitDurable(lsn uint64) error {
	j.mu.Lock()
	err := j.err
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if lsn == 0 {
		return nil
	}
	return j.s.WaitSynced(lsn)
}

// Err reports the journal's sticky append error, if any (diagnostics).
func (j *ObjectJournal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
