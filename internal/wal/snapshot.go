package wal

import (
	"bytes"
	"fmt"
	"io"
	"path"
)

// Snapshot is a durable checkpoint: every participant's opaque state blob,
// with the log position that state is known to cover.
//
// The floor is FUZZY: the LSN is read before participant state is
// collected, so state may already include the effects of records above it.
// Recovery replays every record above the floor, which makes replay
// at-least-once in that window — journaled entries must therefore be
// replay-idempotent (last-write-wins updates are; counters that increment
// blindly are not). See docs/DURABILITY.md.
type Snapshot struct {
	// LSN is the floor: every record at or below it is covered by this
	// snapshot and its segment may be pruned.
	LSN uint64
	// Objects maps participant name to the opaque state blob its Snapshot
	// hook produced (decoded by its Restore hook).
	Objects map[string][]byte

	// acks is an older snapshot's Dedup list as AckLedger records, replayed
	// before the log's (legacy.go). Never encoded.
	acks []*Record
}

func snapshotName(lsn uint64) string { return fmt.Sprintf("%s%016d%s", snapPrefix, lsn, snapSuffix) }

// encodeSnapshot frames a snapshot exactly like a log record, so the
// decoder shares the corruption taxonomy.
func encodeSnapshot(s *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := appendFrame(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeSnapshot is the inverse of encodeSnapshot. A short or mangled
// buffer returns io.ErrUnexpectedEOF or ErrCorrupt; the atomic-rename
// publish protocol means either indicates real damage, not a torn write.
func decodeSnapshot(data []byte) (*Snapshot, error) {
	payload, _, err := decodeFrame(data)
	if err != nil {
		return nil, err
	}
	return decodeSnapshotPayload(payload)
}

// writeSnapshot publishes s atomically: write + fsync a temporary file,
// rename it to its final name, fsync the directory. A crash at any point
// leaves either the old snapshot set or the new one — never a torn file
// under the final name.
func writeSnapshot(fs FS, dir string, s *Snapshot) (string, error) {
	data, err := encodeSnapshot(s)
	if err != nil {
		return "", err
	}
	final := snapshotName(s.LSN)
	tmp := path.Join(dir, final+tmpSuffix)
	f, err := fs.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("wal: create snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("wal: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("wal: close snapshot: %w", err)
	}
	if err := fs.Rename(tmp, path.Join(dir, final)); err != nil {
		return "", fmt.Errorf("wal: publish snapshot: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return "", fmt.Errorf("wal: sync dir: %w", err)
	}
	return final, nil
}

// readSnapshot loads the named snapshot file.
func readSnapshot(fs FS, dir, name string) (*Snapshot, error) {
	r, err := fs.Open(path.Join(dir, name))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(r)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data)
}
