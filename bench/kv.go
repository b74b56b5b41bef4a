package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	alps "repro"
	"repro/internal/objects/rwdb"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/wal"
)

// The three key-value workloads share one client and differ only in what
// serves it: remote-plain and durable-rw call the readers-writers Database of
// one alpsd (without and with -data-dir), replicated-rw calls the Registry of
// a three-member replication group through rpc.DialMulti.
const (
	kvKeys      = 10000 // keys, all preloaded during set-up
	kvZipf      = 0.99
	kvWriteFrac = 0.20
	kvOpRing    = 1 << 18 // generated ops; the stream wraps, write values stay unique
)

type kvKind int

const (
	kvDatabase kvKind = iota // Database.Read(int) / Database.Write(int, int)
	kvRegistry               // Registry.Get(string) / Registry.Put(string, 64-byte string)
)

// mirrorRegistry is the name the mirror publishes the (possibly shimmed)
// replica under. replica.Publish owns the group's own name — it publishes the
// consensus endpoint beside it, which cannot be published separately — so the
// span around Replica.CallSession needs a second name for the same replica.
const mirrorRegistry = "Registry.mirror"

// kvSystem is what serves a kv workload: real children or the in-process
// mirror. Its fields past stop are only set by the mirror.
type kvSystem struct {
	kind   kvKind
	object string   // published name the client calls
	addrs  []string // one address, or the group's three
	stop   func()
	// restart, for the durable daemon only: SIGKILL it, start it again on
	// the same directory and wait until it serves.
	restart func() error

	mirror *kvMirror
}

// kvDriver is the generator-side client of a kvSystem.
type kvDriver struct {
	sys      *kvSystem
	conns    []*rpc.Remote
	cm       *rpc.Metrics // client-side link counters
	ops      []op
	cursor   atomic.Int64
	nclients int
	or       *kvOracle
	tr       *tracer
	keyNames []string

	// Span part: client 0 issues only the stream's writes and client 1 only
	// its reads, so one call of each class is in flight.
	spanMode   bool
	wcur, rcur int

	closeOnce sync.Once
}

func (s *kvSystem) dial(n int) ([]*rpc.Remote, *rpc.Metrics, error) {
	cm := &rpc.Metrics{}
	var conns []*rpc.Remote
	for i := 0; i < n; i++ {
		opts := rpc.DialOptions{
			Timeout: 2 * time.Second,
			Metrics: cm,
			// Retries only matter to a DialMulti client that first reaches a
			// follower; in steady state none fire, and rpc.retries_per_call
			// says so.
			Retry: rpc.RetryPolicy{Max: 8, Backoff: 2 * time.Millisecond},
		}
		var rem *rpc.Remote
		var err error
		if len(s.addrs) > 1 {
			rem, err = rpc.DialMulti(s.addrs, opts)
		} else {
			rem, err = rpc.DialWith(s.addrs[0], opts)
		}
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, nil, err
		}
		conns = append(conns, rem)
	}
	return conns, cm, nil
}

// newKVDriver takes the system over: it is stopped by the driver's close, or
// here if the driver cannot be made.
func newKVDriver(sys *kvSystem, seed uint64, clients int, tr *tracer) (*kvDriver, error) {
	ops, err := genOps(seed, kvOpRing, kvKeys, kvZipf, kvWriteFrac)
	if err != nil {
		sys.stop()
		return nil, err
	}
	conns, cm, err := sys.dial(min(runtime.GOMAXPROCS(0), clients))
	if err != nil {
		sys.stop()
		return nil, err
	}
	d := &kvDriver{sys: sys, conns: conns, cm: cm, ops: ops, nclients: clients, or: newKVOracle(kvKeys), tr: tr}
	if sys.kind == kvRegistry {
		d.keyNames = make([]string, kvKeys)
		for k := range d.keyNames {
			d.keyNames[k] = fmt.Sprintf("key-%05d", k)
		}
	}
	return d, nil
}

func (d *kvDriver) clients() int { return d.nclients }

func (d *kvDriver) next(client int) (bool, error) {
	if d.spanMode {
		cur, want := &d.rcur, false
		if client == 0 {
			cur, want = &d.wcur, true
		}
		for d.ops[*cur%len(d.ops)].write != want {
			*cur++
		}
		*cur++
		return d.do(d.ops[(*cur-1)%len(d.ops)], client)
	}
	return d.at(int(d.cursor.Add(1)), client)
}

func (d *kvDriver) at(i, worker int) (bool, error) {
	return d.do(d.ops[i%len(d.ops)], worker)
}

// write and read issue one call and return the value read.
func (d *kvDriver) write(rem *rpc.Remote, key int32, val int64) error {
	var err error
	if d.sys.kind == kvDatabase {
		_, err = rem.Call(d.sys.object, "Write", int(key), int(val))
	} else {
		v := "preload"
		if val > 0 {
			v = strVal(val)
		}
		_, err = rem.Call(d.sys.object, "Put", d.keyNames[key], v)
	}
	return err
}

func (d *kvDriver) read(rem *rpc.Remote, key int32) (int64, error) {
	if d.sys.kind == kvDatabase {
		res, err := rem.Call(d.sys.object, "Read", int(key))
		if err != nil {
			return 0, err
		}
		if len(res) != 2 {
			return 0, fmt.Errorf("Database.Read returned %d values", len(res))
		}
		v, _ := res[0].(int)
		return int64(v), nil
	}
	res, err := rem.Call(d.sys.object, "Get", d.keyNames[key])
	if err != nil {
		return 0, err
	}
	if len(res) != 1 {
		return 0, fmt.Errorf("Registry.Get returned %d values", len(res))
	}
	s, _ := res[0].(string)
	return parseStrVal(s), nil
}

func (d *kvDriver) do(o op, worker int) (bool, error) {
	rem := d.conns[worker%len(d.conns)]
	if o.write {
		val, err := d.or.beginWrite(o.key)
		if err != nil {
			return true, err
		}
		t0 := d.tr.now()
		err = d.write(rem, o.key, val)
		d.tr.add("rpc.call", val, true, t0)
		if err == nil {
			d.or.ackWrite(o.key, val)
		}
		return true, err
	}
	floor := d.or.beginRead(o.key)
	t0 := d.tr.now()
	val, err := d.read(rem, o.key)
	d.tr.add("rpc.call", 0, false, t0)
	if err == nil {
		d.or.endRead(o.key, floor, val)
	}
	return false, err
}

// fanOut runs fn(g, k) for every k in [0, n) on 16 goroutines (g names the
// goroutine) and returns the first error.
func fanOut(n int, fn func(g, k int) error) error {
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for firstErr.Load() == nil {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				if err := fn(g, k); err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
			}
		}(g)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return *e
	}
	return nil
}

// preload writes the first keys keys (all of them, outside tests) once, with a value the oracle knows is older than
// any write of the run. It is part of set-up time and sized to dominate it.
func (d *kvDriver) preload(keys int) error {
	return fanOut(keys, func(g, k int) error {
		return d.write(d.conns[g%len(d.conns)], int32(k), -int64(k)-1)
	})
}

// verify reads back every key the run wrote and holds the result to the
// same rule as the reads of the run. The durable daemon is first SIGKILLed
// and restarted on its directory: every acknowledged write must have
// survived. (kill -9 leaves the OS page cache intact, so this proves the
// write reached the kernel before its acknowledgement, not the platter.)
func (d *kvDriver) verify() (checked int64, err error) {
	if d.sys.restart != nil {
		if err := d.sys.restart(); err != nil {
			return 0, err
		}
	}
	keys := d.or.written()
	err = fanOut(len(keys), func(g, i int) error {
		k := keys[i]
		val, err := d.read(d.conns[g%len(d.conns)], k)
		if err != nil {
			return err
		}
		d.or.endRead(k, d.or.beginRead(k), val)
		return nil
	})
	return int64(len(keys)), err
}

func (d *kvDriver) violations() (int64, string) {
	return d.or.violations.Load(), deref(d.or.firstBad.Load())
}

func (d *kvDriver) release() {}

func (d *kvDriver) close() {
	d.closeOnce.Do(func() {
		for _, c := range d.conns {
			c.Close()
		}
		d.sys.stop()
	})
}

// ---- the real thing: alpsd children ----

func awaitObject(addr, object string, c *child) error {
	return waitFor(object+" on "+addr, 10*time.Second, func() bool {
		if c.exited() {
			return true // fail below with the log, not by timeout
		}
		rem, err := rpc.DialWith(addr, rpc.DialOptions{Timeout: 200 * time.Millisecond, ListTimeout: 500 * time.Millisecond})
		if err != nil {
			return false
		}
		defer rem.Close()
		names, _ := rem.List()
		for _, n := range names {
			if n == object {
				return true
			}
		}
		return false
	})
}

// startDatabase boots one alpsd and waits until its Database answers.
func startDatabase(e *env, durable bool) (*kvSystem, error) {
	addrs, err := freeAddrs(1)
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addrs[0]}
	if durable {
		dir, err := e.dataDir("db")
		if err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dir)
	}
	var cur *child
	boot := func() error {
		c, err := e.spawn("alpsd", 0, args...)
		if err != nil {
			return err
		}
		cur = c
		if err := awaitObject(addrs[0], "Database", c); err != nil {
			return err
		}
		if c.exited() {
			return fmt.Errorf("alpsd exited during start-up:\n%s", c.logTail())
		}
		return nil
	}
	if err := boot(); err != nil {
		return nil, err
	}
	sys := &kvSystem{kind: kvDatabase, object: "Database", addrs: addrs, stop: func() { cur.kill() }}
	if durable {
		sys.restart = func() error {
			cur.kill()
			return boot()
		}
	}
	return sys, nil
}

func memberSpec(ids, addrs []string) string {
	parts := make([]string, len(ids))
	for i := range ids {
		parts[i] = ids[i] + "=" + addrs[i]
	}
	return strings.Join(parts, ",")
}

var memberIDs = []string{"n0", "n1", "n2"}

// memberProcs is the GOMAXPROCS of each child of a three-node workload: one
// processor each, so that three daemons and the generator do not merely
// measure the kernel scheduler on a small box.
const memberProcs = 1

// startRegistry boots a three-member replication group. Readiness is a first acknowledged Put
// through DialMulti: a leader is elected and a quorum is syncing.
func startRegistry(e *env) (*kvSystem, error) {
	addrs, err := freeAddrs(len(memberIDs))
	if err != nil {
		return nil, err
	}
	peers := memberSpec(memberIDs, addrs)
	var kids []*child
	stop := func() {
		for _, c := range kids {
			c.kill()
		}
	}
	for i, id := range memberIDs {
		dir, err := e.dataDir("replica-" + id)
		if err != nil {
			stop()
			return nil, err
		}
		c, err := e.spawn("alpsd-"+id, memberProcs, "-addr", addrs[i], "-name", id, "-replica-id", id, "-peers", peers, "-data-dir", dir)
		if err != nil {
			stop()
			return nil, err
		}
		kids = append(kids, c)
	}
	sys := &kvSystem{kind: kvRegistry, object: "Registry", addrs: addrs, stop: stop}
	if err := sys.awaitLeader(); err != nil {
		for _, c := range kids {
			err = fmt.Errorf("%w\n--- %s ---\n%s", err, c.name, c.logTail())
		}
		stop()
		return nil, err
	}
	return sys, nil
}

func (s *kvSystem) awaitLeader() error {
	var rem *rpc.Remote
	err := waitFor("a replication member to accept connections", 10*time.Second, func() bool {
		r, err := rpc.DialMulti(s.addrs, rpc.DialOptions{Timeout: 200 * time.Millisecond})
		rem = r
		return err == nil
	})
	if err != nil {
		return err
	}
	defer rem.Close()
	return waitFor("a first acknowledged Registry.Put", 15*time.Second, func() bool {
		_, err := rem.CallWith(context.Background(), rpc.CallOptions{Deadline: time.Second, Retry: &rpc.RetryPolicy{Max: 6, Backoff: 5 * time.Millisecond}},
			s.object, "Put", "ready", "ready")
		return err == nil
	})
}

// ---- the mirror: the same objects hosted in this process ----

// kvMirror holds what the traced pass reads after driving the mirror.
type kvMirror struct {
	nms    []*rpc.Metrics    // node-side link and replication counters, by member
	wm     *wal.Metrics      // all stores'
	recs   []*trace.Recorder // one per object: call ids are per object
	db     *rwdb.DB
	objs   []*alps.Object // Database, or each member's Registry
	served []*callShim    // shims around the published objects
	dirs   []string       // data dirs, for the recovery timing
}

// supervision reproduces the ObjectOptions cmd/alpsd builds from its default
// flags.
func supervision() alps.ObjectOptions {
	return alps.ObjectOptions{
		ManagerPolicy: alps.FailFast,
		Restart:       alps.RestartPolicy{Max: 5},
		Shed:          alps.ShedBlock,
		Metrics:       &alps.SupervisionMetrics{},
	}
}

func traceOpt(rec *trace.Recorder) []alps.Option {
	if rec == nil {
		return nil
	}
	return []alps.Option{alps.WithTrace(rec)}
}

// mirrorDatabase hosts the Database the way cmd/alpsd does, with a shim at
// every public seam when tr is non-nil.
func mirrorDatabase(e *env, durable bool, tr *tracer) (*kvSystem, error) {
	m := &kvMirror{wm: &wal.Metrics{}}
	var rec *trace.Recorder
	if tr != nil {
		rec = alps.NewTrace(0)
		m.recs = []*trace.Recorder{rec}
	}
	oo := supervision()
	var store *alps.DurableStore
	var journal *alps.ObjectJournal
	if durable {
		dir, err := e.dataDir("mirror-db")
		if err != nil {
			return nil, err
		}
		m.dirs = []string{dir}
		store, err = alps.OpenStore(dir, alps.DurabilityOptions{FS: shimFS(tr, wal.OSFS{}), SnapshotEvery: 4096, Metrics: m.wm})
		if err != nil {
			return nil, err
		}
		journal = store.Journal("Database", alps.JournalOptions{Skip: rwdb.JournalSkip})
		oo.Journal = shimJournal(tr, journal)
	}
	db, err := rwdb.New(rwdb.Config{ReadMax: 8, ObjOpts: append(traceOpt(rec), alps.WithObjectOptions(oo))})
	if err != nil {
		return nil, err
	}
	if journal != nil {
		if _, err := journal.Recover(db.Hooks()); err != nil {
			return nil, err
		}
	}
	nm := &rpc.Metrics{Supervision: oo.Metrics}
	node := rpc.NewNodeWith("mirror", rpc.NodeOptions{Metrics: nm, Durable: store})
	published, cs := shimCallable(tr, "core.call", db.Object())
	if err := node.PublishCallable("Database", published); err != nil {
		return nil, err
	}
	addr, err := node.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m.nms, m.db, m.objs, m.served = []*rpc.Metrics{nm}, db, []*alps.Object{db.Object()}, []*callShim{cs}
	return &kvSystem{kind: kvDatabase, object: "Database", addrs: []string{addr}, mirror: m, stop: func() {
		node.Close()
		_ = db.Close()
		if store != nil {
			_ = store.Close() // the dir is about to be removed
		}
	}}, nil
}

// newRegistry is cmd/alpsd's replicated object: a flat string registry with
// entries that never park.
func newRegistry(opts ...alps.Option) (*alps.Object, func() ([]byte, error), func([]byte) error, error) {
	var mu sync.Mutex
	data := make(map[string]string)
	obj, err := alps.New("Registry", append(opts,
		alps.WithEntry(alps.EntrySpec{Name: "Put", Params: 2, Results: 1, Body: func(inv *alps.Invocation) error {
			k, _ := inv.Param(0).(string)
			v, _ := inv.Param(1).(string)
			mu.Lock()
			data[k] = v
			n := len(data)
			mu.Unlock()
			inv.Return(n)
			return nil
		}}),
		alps.WithEntry(alps.EntrySpec{Name: "Get", Params: 1, Results: 1, Body: func(inv *alps.Invocation) error {
			k, _ := inv.Param(0).(string)
			mu.Lock()
			v := data[k]
			mu.Unlock()
			inv.Return(v)
			return nil
		}}),
	)...)
	if err != nil {
		return nil, nil, nil, err
	}
	snapshot := func() ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		var buf bytes.Buffer
		err := gob.NewEncoder(&buf).Encode(data)
		return buf.Bytes(), err
	}
	restore := func(b []byte) error {
		m := make(map[string]string)
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&m); err != nil {
			return err
		}
		mu.Lock()
		data = m
		mu.Unlock()
		return nil
	}
	return obj, snapshot, restore, nil
}

// mirrorRegistryGroup hosts three replication members in this process, wired
// as cmd/alpsd wires one, talking to each other over loopback TCP.
func mirrorRegistryGroup(e *env, tr *tracer) (*kvSystem, error) {
	addrs, err := freeAddrs(len(memberIDs))
	if err != nil {
		return nil, err
	}
	peers := make(map[string]string)
	for i, id := range memberIDs {
		peers[id] = addrs[i]
	}
	m := &kvMirror{wm: &wal.Metrics{}}
	var stops []func()
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	for i, id := range memberIDs {
		dir, err := e.dataDir("mirror-replica-" + id)
		if err != nil {
			stop()
			return nil, err
		}
		m.dirs = append(m.dirs, dir)
		store, err := alps.OpenStore(dir, alps.DurabilityOptions{FS: shimFS(tr, wal.OSFS{}), SnapshotEvery: 4096, Metrics: m.wm})
		if err != nil {
			stop()
			return nil, err
		}
		stops = append(stops, func() { _ = store.Close() })
		oo := supervision()
		var rec *trace.Recorder
		if tr != nil {
			rec = alps.NewTrace(0)
			m.recs = append(m.recs, rec)
		}
		reg, snap, restore, err := newRegistry(append(traceOpt(rec), alps.WithObjectOptions(oo))...)
		if err != nil {
			stop()
			return nil, err
		}
		stops = append(stops, func() { _ = reg.Close() })
		nm := &rpc.Metrics{Supervision: oo.Metrics}
		node := rpc.NewNodeWith(id, rpc.NodeOptions{Metrics: nm, Durable: store})
		stops = append(stops, node.Close)
		applied, _ := shimCallable(tr, "core.call", reg)
		rep, err := alps.ReplicatedObject(node, alps.ReplicaConfig{
			ID: id, Group: "Registry", Peers: peers, Store: store,
			ElectionTimeout: 150 * time.Millisecond,
			Snapshot:        snap, Restore: restore,
			ReadOnly: func(entry string) bool { return entry == "Get" },
			Metrics:  nm,
		}, applied)
		if err != nil {
			stop()
			return nil, err
		}
		stops = append(stops, rep.Close)
		published, cs := shimCallable(tr, "replica.call", rep)
		if err := node.PublishCallable(mirrorRegistry, published); err != nil {
			stop()
			return nil, err
		}
		if _, err := node.ListenAndServe(addrs[i]); err != nil {
			stop()
			return nil, err
		}
		m.nms, m.objs, m.served = append(m.nms, nm), append(m.objs, reg), append(m.served, cs)
	}
	sys := &kvSystem{kind: kvRegistry, object: mirrorRegistry, addrs: addrs, mirror: m, stop: stop}
	if err := sys.awaitLeader(); err != nil {
		stop()
		return nil, err
	}
	return sys, nil
}

// recoverRate times what a restart pays before it can serve: wal.OpenStore
// on the directory a run left behind plus ObjectJournal.Recover into a fresh
// database, in records per second.
func recoverRate(dir string) (float64, error) {
	t0 := time.Now()
	store, err := alps.OpenStore(dir, alps.DurabilityOptions{})
	if err != nil {
		return 0, err
	}
	defer store.Close()
	journal := store.Journal("Database", alps.JournalOptions{Skip: rwdb.JournalSkip})
	oo := supervision()
	oo.Journal = journal
	db, err := rwdb.New(rwdb.Config{ReadMax: 8, ObjOpts: []alps.Option{alps.WithObjectOptions(oo)}})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	if _, err := journal.Recover(db.Hooks()); err != nil {
		return 0, err
	}
	el := time.Since(t0).Seconds()
	st := store.Stats()
	records := st.Outcomes + st.Acks
	if records == 0 {
		return 0, errors.New("recovery found no records")
	}
	return float64(records) / el, nil
}
