package wal

import (
	"fmt"
	"io"
	"path"
	"slices"
	"strings"
	"time"
)

// formatMarker is the on-disk format version: an empty file Open creates,
// and pins with SyncDir, in a fresh directory before its first segment. A
// directory that holds segments or snapshots without it was written by a
// build whose payloads were gob, and Open refuses it with ErrRetiredLayout.
const formatMarker = "format-v2"

// Recovered is what a crashed process left behind: the newest snapshot (if
// any), every record above its floor in LSN order, and the repair stats the
// daemon logs at startup.
type Recovered struct {
	// Snapshot is the newest durable snapshot, nil on a cold start.
	Snapshot *Snapshot
	// Records holds every log record above the snapshot floor, in LSN
	// order: the replay work list.
	Records []*Record
	// LastLSN is the highest LSN known to the store (snapshot floor or last
	// record, whichever is greater); appending resumes above it.
	LastLSN uint64
	// TornBytes counts bytes truncated from the final segment's torn tail.
	TornBytes int64
	// Segments counts log segments scanned.
	Segments int
	// Duration is the wall time recovery took (scan + truncate, not
	// replay).
	Duration time.Duration
}

// Open recovers the WAL directory and returns a Log positioned to append
// after everything that survived, plus the recovered state to replay.
//
// Recovery protocol:
//  0. Check the format marker: a directory without it that holds segments or
//     snapshots fails with ErrRetiredLayout before anything is touched; one
//     that holds neither is fresh and gets the marker.
//  1. Note leftover *.tmp files (snapshots that never published).
//  2. Load the newest snapshot; older snapshots are noted for pruning.
//  3. Scan segments in LSN order, CRC-checking every record. A short or
//     corrupt record in the FINAL segment is a torn write: truncate it and
//     keep everything before it. The same damage in any earlier segment is
//     data loss (sealed segments were fsynced before rotation) and fails
//     recovery rather than silently dropping acknowledged history.
//  4. Verify LSN continuity from the snapshot floor.
//  5. Only now delete what steps 1 and 2 noted.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	start := time.Now()
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}

	names, err := fs.List(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	if !slices.Contains(names, formatMarker) {
		for _, name := range names {
			if strings.HasPrefix(name, segPrefix) || strings.HasPrefix(name, snapPrefix) {
				return nil, nil, fmt.Errorf("wal: %s: %w", dir, ErrRetiredLayout)
			}
		}
		f, err := fs.Create(path.Join(dir, formatMarker))
		if err == nil {
			err = f.Close()
		}
		if err == nil {
			err = fs.SyncDir(dir)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("wal: format marker: %w", err)
		}
	}
	var stale []string // deleted only once the scan has succeeded
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			stale = append(stale, name)
		}
	}

	rec := &Recovered{}

	// Newest snapshot wins; prune the rest (and any that fail to decode —
	// they were published atomically, so damage means the file is garbage,
	// and an older intact snapshot plus the un-pruned log still recovers).
	snaps, err := listSorted(fs, dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, nil, err
	}
	var snapLSN uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		if rec.Snapshot != nil {
			stale = append(stale, snaps[i].name)
			continue
		}
		s, err := readSnapshot(fs, dir, snaps[i].name)
		if err != nil {
			stale = append(stale, snaps[i].name)
			continue
		}
		rec.Snapshot = s
		snapLSN = s.LSN
	}

	segs, err := listSorted(fs, dir, segPrefix, segSuffix)
	if err != nil {
		return nil, nil, err
	}
	rec.Segments = len(segs)
	lastLSN := snapLSN
	for i, seg := range segs {
		final := i == len(segs)-1
		recs, goodLen, total, err := scanSegment(fs, dir, seg)
		if err != nil {
			if !final {
				return nil, nil, fmt.Errorf("wal: segment %s: %w (damage before the final segment is data loss)", seg.name, err)
			}
			// Torn tail: keep the valid prefix, and make the truncation
			// itself durable — this segment will no longer be final once a
			// fresh one opens, and damage in a non-final segment fails the
			// NEXT recovery.
			rec.TornBytes = total - goodLen
			if err := fs.Truncate(path.Join(dir, seg.name), goodLen); err != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", seg.name, err)
			}
			if f, err := fs.Append(path.Join(dir, seg.name)); err == nil {
				serr := f.Sync()
				cerr := f.Close()
				if serr != nil || cerr != nil {
					return nil, nil, fmt.Errorf("wal: sync truncated %s: sync=%v close=%v", seg.name, serr, cerr)
				}
			}
		}
		// Continuity: this segment must start exactly where history left
		// off (pruning only removes fully covered segments). Records the
		// snapshot covers (a prune raced a crash) are skipped.
		for len(recs) > 0 && recs[0].LSN <= snapLSN {
			recs = recs[1:]
		}
		for _, r := range recs {
			if r.LSN != lastLSN+1 {
				return nil, nil, fmt.Errorf("wal: segment %s: LSN gap (have %d, want %d)", seg.name, r.LSN, lastLSN+1)
			}
			lastLSN = r.LSN
			rec.Records = append(rec.Records, r)
		}
	}
	rec.LastLSN = lastLSN
	for _, name := range stale {
		_ = fs.Remove(path.Join(dir, name))
	}

	// Drop the trailing segment from the bookkeeping list if we are about
	// to recreate it under the same name (an empty tail segment from a
	// previous clean start).
	if n := len(segs); n > 0 && segs[n-1].first == lastLSN+1 {
		segs = segs[:n-1]
	}

	l, err := openLog(dir, opts, lastLSN, segs)
	if err != nil {
		return nil, nil, err
	}
	rec.Duration = time.Since(start)
	return l, rec, nil
}

// scanSegment decodes every record in one segment. It returns the records
// decoded, the byte offset of the end of the last good record, the
// segment's total size, and a non-nil error if the tail failed to decode
// (io.ErrUnexpectedEOF for a short frame, ErrCorrupt for a mangled one).
func scanSegment(fs FS, dir string, seg segmentInfo) ([]*Record, int64, int64, error) {
	r, err := fs.Open(path.Join(dir, seg.name))
	if err != nil {
		return nil, 0, 0, err
	}
	data, err := io.ReadAll(r)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, 0, err
	}
	var (
		recs []*Record
		off  int64
		next = seg.first
	)
	for int(off) < len(data) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			return recs, off, int64(len(data)), err
		}
		rec.LSN = next
		next++
		off += int64(n)
		recs = append(recs, rec)
	}
	return recs, off, int64(len(data)), nil
}
