package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// Metrics aggregates the durability counters. Share one instance across a
// node's log to surface them through rpc.Metrics.
type Metrics struct {
	Fsyncs    metrics.Counter // fsync-class operations issued
	Bytes     metrics.Counter // record bytes appended (framed)
	Records   metrics.Counter // records appended
	Snapshots metrics.Counter // snapshots written
}

// Options configures a Log. The zero value is usable: OS filesystem, 4 MiB
// segments. Nothing syncs on a timer: whoever promises a record waits for
// it with WaitSynced.
type Options struct {
	// FS is the filesystem; nil selects OSFS. Crash tests inject a FailFS.
	FS FS
	// SegmentBytes rotates the active segment beyond this size
	// (default 4 MiB).
	SegmentBytes int64
	// Metrics, when non-nil, accumulates fsync/byte/record counters.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Log is an append-only segmented record log with group-commit durability.
//
// Concurrent appenders serialize on an internal mutex for the buffered
// write; durability is paid separately and batched: WaitSynced(lsn) returns
// once every record up to lsn is on stable storage, and at most one caller
// at a time runs the flush+fsync while later callers wait for its result —
// a burst of concurrent acknowledgements costs one fsync, the same
// "last writer flushes" shape the rpc write path uses for its buffered
// frames (docs/PERFORMANCE.md). The fsync itself runs outside mu, so the
// commit is pipelined: while one batch is on its way to the disk the next
// one fills the buffer (docs/DURABILITY.md §3).
type Log struct {
	fs   FS
	dir  string
	opts Options

	// mu guards the active segment: writer, byte counts, LSN assignment.
	mu         sync.Mutex
	f          File
	bw         *bufio.Writer
	lsn        uint64 // last assigned LSN
	segBytes   int64
	closed     bool
	writeErr   error // sticky: a failed write poisons the log
	segments   []segmentInfo
	activeName string

	// fmu is the active file's lifetime lock: the flusher holds it across
	// the fsync it runs outside mu, and rotation and Close take it (after
	// mu) before closing that file.
	fmu sync.Mutex

	// smu guards the durability frontier and elects the single flusher. It
	// is never held while taking mu.
	smu      sync.Mutex
	scond    *sync.Cond
	synced   uint64
	syncErr  error // sticky: a failed flush or fsync fails every later waiter
	flushing bool
}

type segmentInfo struct {
	name  string
	first uint64 // first LSN in the segment
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".db"
	tmpSuffix  = ".tmp"
)

func segmentName(first uint64) string { return fmt.Sprintf("%s%016d%s", segPrefix, first, segSuffix) }

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// open prepares a Log for appending after recovery scanned the directory:
// lastLSN is the highest LSN already on disk, segs the surviving segments
// (sorted by first LSN).
func openLog(dir string, opts Options, lastLSN uint64, segs []segmentInfo) (*Log, error) {
	opts = opts.withDefaults()
	l := &Log{
		fs:       opts.FS,
		dir:      dir,
		opts:     opts,
		lsn:      lastLSN,
		synced:   lastLSN, // everything recovery saw is on disk
		segments: segs,
	}
	l.scond = sync.NewCond(&l.smu)
	if err := l.openSegmentLocked(lastLSN + 1); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegmentLocked starts a fresh segment whose first record will carry
// LSN first. Called with l.mu held (or before the log is shared).
func (l *Log) openSegmentLocked(first uint64) error {
	name := segmentName(first)
	f, err := l.fs.Create(path.Join(l.dir, name))
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 64<<10)
	l.segBytes = 0
	l.activeName = name
	l.segments = append(l.segments, segmentInfo{name: name, first: first})
	return nil
}

// Append encodes rec, assigns it the next LSN and writes it to the active
// segment's buffer. The record is NOT durable until a sync covers its LSN:
// callers that acknowledge externally must WaitSynced(lsn) first.
func (l *Log) Append(rec *Record) (uint64, error) {
	// The LSN is not part of the payload (recovery restores it by position),
	// so the frame is built before mu is taken: under it the bytes are only
	// copied and numbered.
	frame := encBufPool.Get().(*bytes.Buffer)
	frame.Reset()
	defer encBufPool.Put(frame)
	rec.LSN = 0
	if err := appendFrame(frame, rec); err != nil {
		return 0, err
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: append: log closed")
	}
	if l.writeErr != nil {
		err := l.writeErr
		l.mu.Unlock()
		return 0, err
	}
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.writeErr = err
			l.mu.Unlock()
			return 0, err
		}
	}
	if _, err := l.bw.Write(frame.Bytes()); err != nil {
		l.writeErr = fmt.Errorf("wal: write: %w", err)
		err = l.writeErr
		l.mu.Unlock()
		return 0, err
	}
	l.lsn++
	lsn := l.lsn
	n := int64(frame.Len())
	l.segBytes += n
	l.mu.Unlock()

	rec.LSN = lsn
	if m := l.opts.Metrics; m != nil {
		m.Records.Inc()
		m.Bytes.Add(uint64(n))
	}
	return lsn, nil
}

// rotateLocked seals the active segment (flush + fsync, so only the final
// segment can ever carry a torn tail) and starts the next one. An fsync a
// flusher has in flight on the segment finishes first: fmu.
func (l *Log) rotateLocked() error {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.syncFile(l.f); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	return l.openSegmentLocked(l.lsn + 1)
}

func (l *Log) syncFile(f File) error {
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if m := l.opts.Metrics; m != nil {
		m.Fsyncs.Inc()
	}
	return nil
}

// syncBatch is the elected flusher's work. Under mu it only hands the
// buffered records to the file and notes how far they reach; the fsync runs
// outside mu, so appenders fill the buffer for the next batch meanwhile. It
// returns the LSN the fsync is known to cover: what was flushed before it
// began, never what arrived while it ran.
func (l *Log) syncBatch() (uint64, error) {
	l.mu.Lock()
	if l.writeErr == nil {
		if err := l.bw.Flush(); err != nil {
			l.writeErr = fmt.Errorf("wal: flush: %w", err)
		}
	}
	if err := l.writeErr; err != nil {
		l.mu.Unlock()
		return 0, err
	}
	upTo, f := l.lsn, l.f
	l.fmu.Lock() // free: flushers are serial, and closers of f hold mu
	l.mu.Unlock()
	err := l.syncFile(f)
	l.fmu.Unlock()
	if err != nil {
		// What the disk kept of the batch is unknown: poison the appenders too.
		l.mu.Lock()
		if l.writeErr == nil {
			l.writeErr = err
		}
		l.mu.Unlock()
		return 0, err
	}
	return upTo, nil
}

// AppendedLSN reports the highest assigned LSN.
func (l *Log) AppendedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// SyncedLSN reports the durability frontier.
func (l *Log) SyncedLSN() uint64 {
	l.smu.Lock()
	defer l.smu.Unlock()
	return l.synced
}

// WaitSynced blocks until every record up to target is durable (group
// commit: one concurrent caller flushes on behalf of the batch) and returns
// the log's sticky write error, if any.
func (l *Log) WaitSynced(target uint64) error {
	l.smu.Lock()
	defer l.smu.Unlock()
	for l.synced < target {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.flushing {
			l.scond.Wait()
			continue
		}
		l.flushing = true
		l.smu.Unlock()
		upTo, err := l.syncBatch()
		l.smu.Lock()
		l.flushing = false
		if err != nil {
			l.syncErr = err
		} else if upTo > l.synced {
			l.synced = upTo
		}
		l.scond.Broadcast()
	}
	return nil
}

// Sync makes everything appended so far durable.
func (l *Log) Sync() error { return l.WaitSynced(l.AppendedLSN()) }

// Close syncs the tail and closes the active segment. Further appends fail.
func (l *Log) Close() error {
	err := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.fmu.Lock() // a flusher racing Close may still be inside its fsync
	defer l.fmu.Unlock()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	return err
}

// pruneTo removes older snapshots and whole segments made redundant by a
// durable snapshot at snapLSN: a segment is deletable when the next segment
// starts at or below snapLSN+1 (every record in it is covered by the
// snapshot).
func (l *Log) pruneTo(snapLSN uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if snaps, err := listSorted(l.fs, l.dir, snapPrefix, snapSuffix); err == nil {
		for _, sn := range snaps {
			if sn.first < snapLSN {
				_ = l.fs.Remove(path.Join(l.dir, sn.name))
			}
		}
	}
	kept := l.segments[:0]
	removed := false
	for i, seg := range l.segments {
		covered := false
		if i+1 < len(l.segments) && l.segments[i+1].first <= snapLSN+1 && seg.name != l.activeName {
			covered = true
		}
		if covered {
			if err := l.fs.Remove(path.Join(l.dir, seg.name)); err == nil {
				removed = true
				continue
			}
		}
		kept = append(kept, seg)
	}
	l.segments = append([]segmentInfo(nil), kept...)
	if removed {
		_ = l.fs.SyncDir(l.dir)
	}
}

// listSorted returns dir's entries with the given prefix/suffix, sorted by
// their embedded number.
func listSorted(fs FS, dir, prefix, suffix string) ([]segmentInfo, error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, err
	}
	var out []segmentInfo
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, segmentInfo{name: name, first: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].first < out[j].first })
	return out, nil
}
