package wal

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// FailFS is an in-memory filesystem with a power-loss failpoint: every file
// tracks how many of its bytes have been made durable by Sync, and Crash
// discards everything volatile — unsynced bytes (optionally leaving a torn
// prefix of them, as a real disk may persist part of a block) and
// directory-level operations not yet pinned by SyncDir. Crash tests write
// through a FailFS, pull the plug, and recover from what a real disk would
// have kept.
type FailFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	// dirDirty tracks files created, renamed-in or removed since the last
	// SyncDir of their directory; on Crash, un-pinned creations vanish and
	// un-pinned removals resurrect the durable content.
	dirDirty map[string]dirOp
	// TornTail, when n > 0, makes Crash keep up to n bytes of each file's
	// unsynced suffix — a torn write for the recovery path to truncate.
	TornTail int
	// SyncHook, when set, runs inside every file Sync before any byte is
	// marked durable: a test holds an fsync open by blocking in it, or fails
	// the fsync by returning an error. Set it while no Sync is running.
	SyncHook func(name string) error

	syncs   int // fsync count, for assertions
	crashes int
}

type dirOp int

const (
	dirCreated dirOp = iota + 1
	dirRemoved
)

type memFile struct {
	data   []byte
	synced int  // prefix length made durable by Sync
	open   bool // an unclosed writer handle exists
}

// NewFailFS creates an empty failpoint filesystem.
func NewFailFS() *FailFS {
	return &FailFS{files: make(map[string]*memFile), dirDirty: make(map[string]dirOp)}
}

type failFile struct {
	fs   *FailFS
	name string
}

func (f *failFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	mf, ok := f.fs.files[f.name]
	if !ok {
		return 0, fmt.Errorf("wal: failfs: write %s: file vanished", f.name)
	}
	mf.data = append(mf.data, p...)
	return len(p), nil
}

// Sync makes durable what was written before it was called — all a real
// fsync promises; bytes that arrive while it runs wait for the next one.
func (f *failFile) Sync() error {
	f.fs.mu.Lock()
	mf := f.fs.files[f.name]
	n := 0
	if mf != nil {
		n = len(mf.data)
	}
	f.fs.mu.Unlock()
	if hook := f.fs.SyncHook; hook != nil {
		if err := hook(f.name); err != nil {
			return err
		}
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if mf != nil {
		mf.synced = max(mf.synced, min(n, len(mf.data)))
	}
	f.fs.syncs++
	return nil
}

func (f *failFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if mf, ok := f.fs.files[f.name]; ok {
		mf.open = false
	}
	return nil
}

// Create implements FS.
func (fs *FailFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[name] = &memFile{open: true}
	fs.markDirtyLocked(name, dirCreated)
	return &failFile{fs: fs, name: name}, nil
}

// Append implements FS.
func (fs *FailFS) Append(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		fs.files[name] = &memFile{}
		fs.markDirtyLocked(name, dirCreated)
	}
	fs.files[name].open = true
	return &failFile{fs: fs, name: name}, nil
}

// Open implements FS.
func (fs *FailFS) Open(name string) (io.ReadCloser, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	mf, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("wal: failfs: open %s: no such file", name)
	}
	return io.NopCloser(bytes.NewReader(append([]byte(nil), mf.data...))), nil
}

// List implements FS.
func (fs *FailFS) List(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	prefix := strings.TrimSuffix(dir, "/") + "/"
	var names []string
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) && !strings.Contains(name[len(prefix):], "/") {
			names = append(names, name[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements FS. The rename itself becomes durable at the next
// SyncDir (or is already durable if the target directory has no pending
// operations and the source was durable — modelled conservatively: the new
// name is dirty until SyncDir).
func (fs *FailFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	mf, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("wal: failfs: rename %s: no such file", oldname)
	}
	delete(fs.files, oldname)
	fs.files[newname] = mf
	fs.markDirtyLocked(newname, dirCreated)
	fs.markDirtyLocked(oldname, dirRemoved)
	return nil
}

// Remove implements FS.
func (fs *FailFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("wal: failfs: remove %s: no such file", name)
	}
	delete(fs.files, name)
	fs.markDirtyLocked(name, dirRemoved)
	return nil
}

// Truncate implements FS.
func (fs *FailFS) Truncate(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	mf, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("wal: failfs: truncate %s: no such file", name)
	}
	if int(size) < len(mf.data) {
		mf.data = mf.data[:size]
	}
	if mf.synced > len(mf.data) {
		mf.synced = len(mf.data)
	}
	return nil
}

// MkdirAll implements FS.
func (fs *FailFS) MkdirAll(string) error { return nil }

// SyncDir implements FS: pins every pending create/rename/remove in dir.
func (fs *FailFS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	prefix := strings.TrimSuffix(dir, "/") + "/"
	for name := range fs.dirDirty {
		if strings.HasPrefix(name, prefix) {
			delete(fs.dirDirty, name)
		}
	}
	fs.syncs++
	return nil
}

func (fs *FailFS) markDirtyLocked(name string, op dirOp) {
	// A remove of a file whose creation was never pinned cancels out; any
	// other sequence collapses to the latest operation.
	if op == dirRemoved {
		if prev, ok := fs.dirDirty[name]; ok && prev == dirCreated {
			delete(fs.dirDirty, name)
			return
		}
	}
	fs.dirDirty[name] = op
}

// Crash simulates power loss: unsynced bytes are dropped (up to TornTail of
// them survive as a torn tail), files whose creation was never pinned by
// SyncDir vanish, and unpinned removals are ignored (the file's durable
// bytes were already gone from our map — a conservative model: we treat an
// unpinned remove as durable, which only makes recovery harder). Open
// handles are invalidated.
func (fs *FailFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashes++
	for name, op := range fs.dirDirty {
		if op == dirCreated {
			delete(fs.files, name)
		}
		delete(fs.dirDirty, name)
	}
	for _, mf := range fs.files {
		keep := mf.synced
		if fs.TornTail > 0 && len(mf.data) > keep {
			torn := len(mf.data) - keep
			if torn > fs.TornTail {
				torn = fs.TornTail
			}
			keep += torn
		}
		mf.data = mf.data[:keep]
		if mf.synced > keep {
			mf.synced = keep
		}
		mf.open = false
	}
}

// Syncs reports how many fsync-class operations have run.
func (fs *FailFS) Syncs() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs
}

// bytesOf reports a file's current contents (tests only).
func (fs *FailFS) bytesOf(name string) []byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if mf, ok := fs.files[name]; ok {
		return append([]byte(nil), mf.data...)
	}
	return nil
}
