package testutil

import (
	"testing"

	"repro/internal/wal"
	"repro/internal/wire"
)

// AckLedger reads what a closed store in dir holds of the node's
// at-most-once ledger (wal.AckLedger): its records above the newest
// snapshot's floor, and the entries that snapshot's ledger checkpoint names
// (-1 when there is no snapshot, or the snapshot carries no ledger blob).
// It opens the directory the way recovery does, so call it last: recovery
// may start a fresh segment there.
func AckLedger(t testing.TB, fs wal.FS, dir string) (records, entries int) {
	t.Helper()
	log, rec, err := wal.Open(dir, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, r := range rec.Records {
		if r.Object == wal.AckLedger {
			records++
		}
	}
	entries = -1
	if rec.Snapshot == nil {
		return records, entries
	}
	blob, ok := rec.Snapshot.Objects[wal.AckLedger]
	if !ok {
		return records, entries
	}
	// The blob is a wire list, one tuple per entry.
	list, err := wire.DecodeValue(blob)
	if _, ok := list.([]any); err != nil || !ok {
		t.Fatalf("ack ledger checkpoint: %T, %v", list, err)
	}
	return records, len(list.([]any))
}
