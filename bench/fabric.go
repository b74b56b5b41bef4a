package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	alps "repro"
	"repro/internal/conformance"
	"repro/internal/fabric"
	"repro/internal/rpc"
	"repro/internal/workload"
)

// fabric-append: keyed appends through fabric.Router to a three-member ring.
const (
	fabricKeys    = 4096
	fabricPayload = 64
	fabricOpRing  = 1 << 18
)

// fabricSystem is a ring of three members, real or mirrored.
type fabricSystem struct {
	spec   string // ring spec the routers start from
	stop   func()
	served []*callShim // mirror only: shims around each fabric.Host
	nms    []*rpc.Metrics
	dirs   []string
}

// keyLane serializes one key's appends: fabric.Router.Append wants dense
// sequence numbers per (client, key) with one call in flight, so a call for
// a busy key waits its turn here — still timed, by its caller, from when it
// was due.
type keyLane struct {
	mu   sync.Mutex
	next uint64 // next sequence number = appends acknowledged so far
	acks []ackRec
}

type ackRec struct {
	node  string
	epoch uint64
	dup   bool
	setup bool // acknowledged during preload
}

type fabricDriver struct {
	sys      *fabricSystem
	routers  []*fabric.Router // key k is owned by routers[k % len]: one client identity per key
	keys     []int32          // the op stream
	names    []string
	lanes    []keyLane
	cursor   atomic.Int64
	nextID   atomic.Int64
	nclients int
	tr       *tracer
	// preloading is set around preload, whose goroutines start after the
	// store and are joined before the clear.
	preloading bool
	bad        atomic.Int64
	firstBad   atomic.Pointer[string]
	closeOnce  sync.Once
}

func ringSpec(addrs []string) (string, error) {
	members := make(map[string]string)
	for i, id := range memberIDs {
		members[id] = addrs[i]
	}
	ring, err := fabric.NewRing(0, 1, 0, members) // cmd/alpsd's default -fabric-epoch, -fabric-seed, -fabric-vnodes
	if err != nil {
		return "", err
	}
	return ring.Spec(), nil
}

// newFabricDriver takes the system over, as newKVDriver does.
func newFabricDriver(sys *fabricSystem, seed uint64, clients int, tr *tracer) (*fabricDriver, error) {
	zipf, err := workload.NewZipf(workload.NewRNG(seed), fabricKeys, kvZipf)
	if err != nil {
		sys.stop()
		return nil, err
	}
	d := &fabricDriver{sys: sys, keys: make([]int32, fabricOpRing), names: make([]string, fabricKeys),
		lanes: make([]keyLane, fabricKeys), nclients: clients, tr: tr}
	for i := range d.keys {
		d.keys[i] = int32(zipf.Next())
	}
	for k := range d.names {
		d.names[k] = fmt.Sprintf("key-%04d", k)
	}
	for i := 0; i < min(runtime.GOMAXPROCS(0), clients); i++ {
		r, err := fabric.NewRouter(sys.spec, fabric.RouterOptions{ClientID: fmt.Sprintf("bench-%d-%d", seed, i)})
		if err != nil {
			d.close()
			return nil, err
		}
		d.routers = append(d.routers, r)
	}
	return d, nil
}

func (d *fabricDriver) clients() int { return d.nclients }

func (d *fabricDriver) next(client int) (bool, error) { return d.at(int(d.cursor.Add(1)), client) }

func (d *fabricDriver) at(i, _ int) (bool, error) {
	return true, d.append(d.keys[i%len(d.keys)])
}

func (d *fabricDriver) fail(format string, args ...any) {
	d.bad.Add(1)
	msg := fmt.Sprintf(format, args...)
	d.firstBad.CompareAndSwap(nil, &msg)
}

func (d *fabricDriver) append(key int32) error {
	lane := &d.lanes[key]
	router := d.routers[int(key)%len(d.routers)]
	var payload [fabricPayload]byte
	id := d.nextID.Add(1)
	binary.LittleEndian.PutUint64(payload[:], uint64(id)) // the op id rides in the payload it already has
	lane.mu.Lock()
	defer lane.mu.Unlock()
	seq := lane.next
	t0 := d.tr.now()
	ex, err := router.Append(context.Background(), d.names[key], seq, payload[:])
	d.tr.add("fabric.append", id, true, t0)
	if err != nil {
		return err
	}
	lane.next++
	lane.acks = append(lane.acks, ackRec{ex.Node, ex.Epoch, ex.Info == "dup", d.preloading})
	if ex.Seq != seq || ex.Count != seq+1 {
		d.fail("key %s: append seq %d acknowledged as seq %d count %d", d.names[key], seq, ex.Seq, ex.Count)
	}
	return nil
}

// preload appends once to each of the first keys keys, so each exists on its owner before the
// measured phases.
func (d *fabricDriver) preload(keys int) error {
	d.preloading = true
	defer func() { d.preloading = false }()
	return fanOut(keys, func(_, k int) error { return d.append(int32(k)) })
}

// verify replays the acknowledgements through conformance.CheckKeyOrder
// (key affinity, epoch monotonicity, per-key FIFO, at-most-once) and asks
// every key's owner, through Router.Audit, whether its ledger holds exactly
// the appends that were acknowledged.
func (d *fabricDriver) verify() (checked int64, err error) {
	var execs []conformance.KeyedExec
	for k := range d.lanes {
		client := fmt.Sprint(k % len(d.routers))
		for seq, a := range d.lanes[k].acks {
			execs = append(execs, conformance.KeyedExec{Key: d.names[k], Client: client, Seq: seq, Shard: a.node, Epoch: a.epoch})
		}
	}
	for _, div := range conformance.CheckKeyOrder(execs) {
		d.fail("%s: %s", div.Rule, div.Detail)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for k := range d.lanes {
		lane := &d.lanes[k]
		if lane.next == 0 {
			continue
		}
		checked++
		au, err := d.routers[k%len(d.routers)].Audit(ctx, d.names[k])
		if err != nil {
			return checked, err
		}
		if !au.Found || au.Count != lane.next {
			d.fail("key %s: owner %s holds %d appends, %d were acknowledged", d.names[k], au.Node, au.Count, lane.next)
		}
	}
	return checked, nil
}

// ackStats reports the share of acknowledgements answered from the dedup
// ledger and the ratio between the busiest and the idlest member, over the
// acknowledgements after preload. (The first calls through a cold Router
// race to dial each member, the losers' connections are dropped under them
// and their retries are answered "dup": at-most-once working, but set-up's
// business, not the steady state's.)
func (d *fabricDriver) ackStats() (dupShare, nodeSkew float64) {
	byNode := map[string]int{}
	var acks, dups int
	for k := range d.lanes {
		for _, a := range d.lanes[k].acks {
			if a.setup {
				continue
			}
			acks++
			byNode[a.node]++
			if a.dup {
				dups++
			}
		}
	}
	if acks == 0 {
		return 0, 0
	}
	lo, hi := acks, 0
	for _, n := range byNode {
		lo, hi = min(lo, n), max(hi, n)
	}
	return float64(dups) / float64(acks), float64(hi) / float64(lo)
}

func (d *fabricDriver) violations() (int64, string) { return d.bad.Load(), deref(d.firstBad.Load()) }

func (d *fabricDriver) release() {}

func (d *fabricDriver) close() {
	d.closeOnce.Do(func() {
		for _, r := range d.routers {
			r.Close()
		}
		d.sys.stop()
	})
}

// awaitRing polls Router.Status until every member answers with the ring.
func (s *fabricSystem) awaitRing() error {
	r, err := fabric.NewRouter(s.spec, fabric.RouterOptions{ClientID: "bench-ready", DialTimeout: 200 * time.Millisecond})
	if err != nil {
		return err
	}
	defer r.Close()
	for _, id := range memberIDs {
		err := waitFor("fabric member "+id, 10*time.Second, func() bool {
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			_, _, _, err := r.Status(ctx, id)
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// startFabric boots three fabric members.
func startFabric(e *env) (*fabricSystem, error) {
	addrs, err := freeAddrs(len(memberIDs))
	if err != nil {
		return nil, err
	}
	spec, err := ringSpec(addrs)
	if err != nil {
		return nil, err
	}
	members := memberSpec(memberIDs, addrs)
	var kids []*child
	sys := &fabricSystem{spec: spec, stop: func() {
		for _, c := range kids {
			c.kill()
		}
	}}
	for i, id := range memberIDs {
		dir, err := e.dataDir("fabric-" + id)
		if err != nil {
			sys.stop()
			return nil, err
		}
		c, err := e.spawn("alpsd-"+id, memberProcs, "-addr", addrs[i], "-name", id, "-fabric-id", id, "-fabric-members", members, "-data-dir", dir)
		if err != nil {
			sys.stop()
			return nil, err
		}
		kids = append(kids, c)
	}
	if err := sys.awaitRing(); err != nil {
		for _, c := range kids {
			err = fmt.Errorf("%w\n--- %s ---\n%s", err, c.name, c.logTail())
		}
		sys.stop()
		return nil, err
	}
	return sys, nil
}

// mirrorFabric hosts three fabric.Hosts in this process, published the way
// cmd/alpsd publishes one.
func mirrorFabric(e *env, tr *tracer) (*fabricSystem, error) {
	addrs, err := freeAddrs(len(memberIDs))
	if err != nil {
		return nil, err
	}
	spec, err := ringSpec(addrs)
	if err != nil {
		return nil, err
	}
	var stops []func()
	sys := &fabricSystem{spec: spec}
	sys.stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	for i, id := range memberIDs {
		dir, err := e.dataDir("mirror-fabric-" + id)
		if err != nil {
			sys.stop()
			return nil, err
		}
		sys.dirs = append(sys.dirs, dir)
		host, err := fabric.NewHost(fabric.HostOptions{ID: id, Spec: spec, Shards: 4, Dir: filepath.Join(dir, "fabric")})
		if err != nil {
			sys.stop()
			return nil, err
		}
		stops = append(stops, func() { _ = host.Close() })
		// cmd/alpsd mounts its -data-dir store on the node even when only the
		// fabric is used; the node's serve path depends on that.
		store, err := alps.OpenStore(dir, alps.DurabilityOptions{SnapshotEvery: 4096})
		if err != nil {
			sys.stop()
			return nil, err
		}
		stops = append(stops, func() { _ = store.Close() })
		nm := &rpc.Metrics{}
		node := rpc.NewNodeWith(id, rpc.NodeOptions{Metrics: nm, Durable: store})
		stops = append(stops, node.Close)
		published, cs := shimCallable(tr, "fabric.host_call", host)
		if err := node.PublishCallable("fabric", published); err != nil {
			sys.stop()
			return nil, err
		}
		if _, err := node.ListenAndServe(addrs[i]); err != nil {
			sys.stop()
			return nil, err
		}
		sys.served, sys.nms = append(sys.served, cs), append(sys.nms, nm)
	}
	if err := sys.awaitRing(); err != nil {
		sys.stop()
		return nil, err
	}
	return sys, nil
}
