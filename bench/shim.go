package main

import (
	"context"
	"encoding/binary"
	"strconv"
	"sync/atomic"

	alps "repro"
	"repro/internal/rpc"
	"repro/internal/wal"
)

// The traced pass interposes only at seams the product already has: a value
// published on an rpc.Node, the core.Journal an object is created with, the
// wal.FS a store is opened on and the object handed to replica.New. Every
// constructor here returns its argument unchanged for a nil tracer.

// opID recovers the op id a write-class call carries in the value slot it
// already has; 0 for read-class calls.
func opID(entry string, params []any) (id int64, write bool) {
	switch entry {
	case "Write": // Database.Write(key, value int)
		if len(params) == 2 {
			v, _ := params[1].(int)
			return int64(v), true
		}
	case "Put": // Registry.Put(key, value string)
		if len(params) == 2 {
			s, _ := params[1].(string)
			return parseStrVal(s), true
		}
	case "Append": // fabric Append(key, client, seq, payload, ...)
		if len(params) >= 4 {
			b, _ := params[3].([]byte)
			if len(b) >= 8 {
				return int64(binary.LittleEndian.Uint64(b)), true
			}
		}
		return 0, true
	}
	return 0, false
}

// strVal renders an op id as the fixed-width registry value; parseStrVal
// reads it back (0 for anything else, the preload values included).
func strVal(id int64) string {
	const pad = "................................................" // 48 bytes: 16 hex digits + pad = 64
	var b [16]byte
	s := strconv.AppendInt(b[:0], id, 16)
	return "0000000000000000"[len(s):] + string(s) + pad
}

func parseStrVal(s string) int64 {
	if len(s) < 16 {
		return 0
	}
	v, err := strconv.ParseInt(s[:16], 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// callShim times an rpc.Callable. It counts how its calls were served, which
// is where rpc.async_share comes from.
type callShim struct {
	inner  rpc.Callable
	tr     *tracer
	name   string
	served atomic.Int64 // calls served, by either path
	async  atomic.Int64 // of those, accepted by CallAsync
}

func (s *callShim) CallCtx(ctx context.Context, entry string, params ...any) ([]any, error) {
	id, write := opID(entry, params)
	t0 := s.tr.now()
	res, err := s.inner.CallCtx(ctx, entry, params...)
	s.tr.add(s.name, id, write, t0)
	s.served.Add(1)
	return res, err
}

// The node looks for these two optional surfaces by type assertion, so a
// shim must have exactly the ones its inner value has — or the shim itself
// would change which serve path the node picks.
type (
	asyncCallable interface {
		CallAsync(entry string, params []any, done func([]any, error)) bool
	}
	sessionCallable interface {
		CallSession(ctx context.Context, client string, seq uint64, entry string, params []any) ([]any, error)
	}
	asyncShim struct {
		*callShim
		ac asyncCallable
	}
	sessionShim struct {
		*callShim
		sc sessionCallable
	}
)

func (s asyncShim) CallAsync(entry string, params []any, done func([]any, error)) bool {
	id, write := opID(entry, params)
	t0 := s.tr.now()
	ok := s.ac.CallAsync(entry, params, func(res []any, err error) {
		s.tr.add(s.name, id, write, t0)
		done(res, err)
	})
	if ok {
		s.served.Add(1)
		s.async.Add(1)
	}
	return ok
}

func (s sessionShim) CallSession(ctx context.Context, client string, seq uint64, entry string, params []any) ([]any, error) {
	id, write := opID(entry, params)
	t0 := s.tr.now()
	res, err := s.sc.CallSession(ctx, client, seq, entry, params)
	s.tr.add(s.name, id, write, t0)
	s.served.Add(1)
	return res, err
}

// shimCallable wraps inner so that every call into it is recorded as a span
// called name. The second result is the counting core (nil when untraced).
func shimCallable(tr *tracer, name string, inner rpc.Callable) (rpc.Callable, *callShim) {
	if tr == nil {
		return inner, nil
	}
	cs := &callShim{inner: inner, tr: tr, name: name}
	if ac, ok := inner.(asyncCallable); ok {
		return asyncShim{cs, ac}, cs
	}
	if sc, ok := inner.(sessionCallable); ok {
		return sessionShim{cs, sc}, cs
	}
	return cs, cs
}

// journalShim times the two calls an object makes into its core.Journal.
type journalShim struct {
	inner alps.Journal
	tr    *tracer
}

func shimJournal(tr *tracer, inner alps.Journal) alps.Journal {
	if tr == nil {
		return inner
	}
	return journalShim{inner, tr}
}

func (j journalShim) RecordOutcome(entry string, callID uint64, params, results []any, callErr error) uint64 {
	id, _ := opID(entry, params)
	t0 := j.tr.now()
	lsn := j.inner.RecordOutcome(entry, callID, params, results, callErr)
	j.tr.add("wal.record", id, true, t0)
	return lsn
}

func (j journalShim) WaitDurable(lsn uint64) error {
	t0 := j.tr.now()
	err := j.inner.WaitDurable(lsn)
	j.tr.add("wal.wait_durable", 0, true, t0)
	return err
}

// fsShim times File.Sync on every file a store opens for writing.
type fsShim struct {
	wal.FS
	tr *tracer
}

func shimFS(tr *tracer, inner wal.FS) wal.FS {
	if tr == nil {
		return inner
	}
	return fsShim{inner, tr}
}

type fileShim struct {
	wal.File
	tr *tracer
}

func (f fsShim) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return fileShim{file, f.tr}, nil
}

func (f fsShim) Append(name string) (wal.File, error) {
	file, err := f.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return fileShim{file, f.tr}, nil
}

func (f fileShim) Sync() error {
	t0 := f.tr.now()
	err := f.File.Sync()
	f.tr.add("wal.fsync", 0, true, t0)
	return err
}
