package rpc

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/wal"
)

// The ack ledger is the node's dedup table as an ordinary participant of
// its wal.Store, under wal.AckLedger. Each successful call on a journaled
// entry appends one record after the call's outcome record and syncs it
// before the response leaves (link.go):
//
//	ack [client, seq, results, errMsg, errKind]
//
// Its checkpoint is the table's completed entries. A restart restores the
// checkpoint and replays the records above its floor, so a (client, seq)
// retried across the crash is answered from disk, never re-executed.
const ackRecord = "ack"

func (a AckEntry) params() []any { return []any{a.Client, a.Seq, a.Results, a.ErrMsg, a.ErrKind} }

func ackFromRecord(entry string, p []any) (a AckEntry, err error) {
	if entry == ackRecord && len(p) == 5 {
		var ok [5]bool
		a.Client, ok[0] = p[0].(string)
		a.Seq, ok[1] = p[1].(uint64)
		a.Results, ok[2] = p[2].([]any)
		a.ErrMsg, ok[3] = p[3].(string)
		a.ErrKind, ok[4] = p[4].(int32)
		if ok == [5]bool{true, true, true, true, true} {
			return a, nil
		}
	}
	return a, fmt.Errorf("not an ack record: %s %v", entry, p)
}

// recoverAcks seats the ledger in st and folds in what the previous
// incarnation left.
func (n *Node) recoverAcks(st *wal.Store) error {
	n.acks = st.Journal(wal.AckLedger, wal.JournalOptions{})
	_, err := n.acks.Recover(wal.RecoverHooks{
		Restore: func(blob []byte) error {
			var entries []AckEntry
			if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&entries); err != nil {
				return err
			}
			n.dedup.Load(entries)
			return nil
		},
		Replay: func(entry string, p []any) error {
			a, err := ackFromRecord(entry, p)
			if err == nil {
				n.dedup.Load([]AckEntry{a})
			}
			return err
		},
		Snapshot: func() ([]byte, error) {
			entries := n.dedup.Dump()
			// A checkpoint reveals nothing that is not durable. The dump can hold
			// a call that completed after an earlier-registered participant (an
			// object) gave its checkpoint, its outcome and ack records unsynced:
			// this blob must not remember an acknowledgement a crash would undo.
			if err := st.WaitSynced(st.AppendedLSN()); err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err := gob.NewEncoder(&buf).Encode(entries)
			return buf.Bytes(), err
		},
	})
	return err
}
