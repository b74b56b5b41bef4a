// Command alpsd is a node daemon: it hosts ALPS objects — the combining
// dictionary (§2.7.1), a bounded buffer (§2.4.1) and the readers-writers
// database (§2.5.1) — behind a TCP listener, making their entry procedures
// callable as remote procedure calls (paper §1, §3). Use cmd/alpsclient to
// talk to it.
//
// Usage:
//
//	alpsd -addr 127.0.0.1:7100
//	alpsd -addr 127.0.0.1:7100 -defs coord.defs   # also host declarative
//	                                              # coordination objects
//	alpsd -addr 127.0.0.1:7100 -data-dir /var/lib/alpsd
//	                                              # durable database: acknowledged
//	                                              # writes survive kill -9
//	alpsd -addr 127.0.0.1:7100 -replica-id A \
//	      -peers "A=127.0.0.1:7100,B=127.0.0.1:7101,C=127.0.0.1:7102"
//	                                              # member A of a consensus-replicated
//	                                              # Registry group (docs/REPLICATION.md);
//	                                              # add -join when restarting a crashed
//	                                              # member into a live group
package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	alps "repro"
	"repro/internal/defs"
	"repro/internal/fabric"
	"repro/internal/objects/buffer"
	"repro/internal/objects/dict"
	"repro/internal/objects/rwdb"
	"repro/internal/objects/spooler"
	"repro/internal/rpc"
	"repro/internal/shard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "alpsd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	srv, bound, err := newServer(args)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("alpsd listening on %s\n", bound)
	fmt.Printf("objects: %v\n", srv.node.Objects())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}

// server bundles the node and its hosted objects so tests can start and
// stop a daemon in-process.
type server struct {
	node  *rpc.Node
	nm    *rpc.Metrics // node transport + supervision counters, reported at drain
	d     *dict.Dict   // single dictionary (-shards 1)
	dg    *shard.Group // sharded dictionary (-shards > 1)
	b     *buffer.Buffer
	db    *rwdb.DB
	sp    *spooler.Spooler
	store *alps.DurableStore // nil unless -data-dir is set
	reg   *alps.Object       // replicated registry (-peers)
	rep   *alps.Replica      // this node's replication-group member
	fh    *fabric.Host       // cross-process shard fabric member (-fabric-id)

	defObjs []*alps.Object
}

// newServer parses flags, builds the objects and starts serving. It
// returns the bound address.
func newServer(args []string) (*server, string, error) {
	fs := flag.NewFlagSet("alpsd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7100", "listen address")
		name       = fs.String("name", "alpsd", "node name")
		searchCost = fs.Duration("search-cost", 2*time.Millisecond, "simulated dictionary search time")
		shards     = fs.Int("shards", 1, "dictionary shard count; >1 hosts a key-affine shard group under the same name")
		bufSlots   = fs.Int("buffer-slots", 16, "bounded buffer capacity")
		readMax    = fs.Int("read-max", 8, "database ReadMax")
		printers   = fs.Int("printers", 2, "spooler printer pool size")
		pageCost   = fs.Duration("page-cost", time.Millisecond, "simulated print time per page")
		defsPath   = fs.String("defs", "", "definition file of additional coordination objects")

		// Durability (docs/DURABILITY.md).
		dataDir   = fs.String("data-dir", "", "durability directory for the database's write-ahead ledger; empty = durability off")
		snapEvery = fs.Int("snapshot-every", 4096, "journaled records between durability snapshots; 0 = never checkpoint: the journal grows without bound and a restart re-applies all of it")

		// Replication (docs/REPLICATION.md).
		replicaID = fs.String("replica-id", "", "this member's ID in a replication group (requires -peers)")
		peersSpec = fs.String("peers", "", `static replication-group membership "id=host:port,..." including this member; hosts the consensus-replicated Registry object`)
		join      = fs.Bool("join", false, "rejoin an existing group quietly: triple this member's election patience so it catches up as a follower instead of forcing an election")

		// Cross-process shard fabric (docs/FABRIC.md).
		fabricID      = fs.String("fabric-id", "", "this node's member ID in the shard fabric (requires -fabric-members)")
		fabricMembers = fs.String("fabric-members", "", `initial fabric ring membership "id=host:port,..." including this member; addresses are what peers and clients dial`)
		fabricSeed    = fs.Uint64("fabric-seed", 1, "fabric ring placement seed; must agree across the cluster")
		fabricEpoch   = fs.Uint64("fabric-epoch", 0, "epoch of the boot ring; a member joining an already-resharded cluster must boot at the new ring's epoch so the settle gate holds")
		fabricVNodes  = fs.Int("fabric-vnodes", 0, "fabric ring virtual nodes per member, 0 = default")
		fabricShards  = fs.Int("fabric-shards", 4, "fabric ledger shards on this node")
		fabricMaxPend = fs.Int("fabric-max-pending", 0, "fabric per-shard pending append bound; beyond it appends are shed with an overload error, 0 = unbounded")

		// Supervision & admission control (docs/SUPERVISION.md).
		mgrPolicy   = fs.String("manager-policy", "failfast", "manager panic policy: failfast (poison) or restart")
		maxRestarts = fs.Int("max-restarts", 5, "restart budget before the object is poisoned (restart policy)")
		maxPending  = fs.Int("max-pending", 0, "per-entry pending-call bound, 0 = unbounded")
		shed        = fs.String("shed", "block", "policy when -max-pending is full: block, reject-newest, reject-oldest")
		callTimeout = fs.Duration("call-timeout", 0, "default deadline for calls arriving without one, 0 = none")
		stallAfter  = fs.Duration("stall-threshold", 0, "stall-watchdog threshold on oldest pending call age, 0 = off")
	)
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}

	oo := alps.ObjectOptions{
		Restart:            alps.RestartPolicy{Max: *maxRestarts},
		MaxPending:         *maxPending,
		DefaultCallTimeout: *callTimeout,
		Watchdog:           alps.WatchdogConfig{Threshold: *stallAfter},
	}
	switch *mgrPolicy {
	case "failfast":
		oo.ManagerPolicy = alps.FailFast
	case "restart":
		oo.ManagerPolicy = alps.Restart
	default:
		return nil, "", fmt.Errorf("unknown -manager-policy %q (failfast, restart)", *mgrPolicy)
	}
	switch *shed {
	case "block":
		oo.Shed = alps.ShedBlock
	case "reject-newest":
		oo.Shed = alps.ShedRejectNewest
	case "reject-oldest":
		oo.Shed = alps.ShedRejectOldest
	default:
		return nil, "", fmt.Errorf("unknown -shed %q (block, reject-newest, reject-oldest)", *shed)
	}
	// One supervision counter set shared by every hosted object and exposed
	// through the node's rpc metrics.
	sup := &alps.SupervisionMetrics{}
	oo.Metrics = sup
	supOpt := alps.WithObjectOptions(oo)

	srv := &server{}
	ok := false
	defer func() {
		if !ok {
			srv.Close()
		}
	}()

	var err error
	if *shards > 1 {
		// Shard the dictionary: one replica per shard, calls routed by the
		// queried word so combining still sees every request for a word on
		// the same replica, published under the usual single name.
		srv.dg, err = shard.New("Dictionary", *shards,
			func(i int, shardName string) (*alps.Object, error) {
				d, err := dict.New(dict.Options{
					Name:       shardName,
					SearchMax:  32,
					SearchCost: *searchCost,
					Combine:    true,
					ObjOpts:    []alps.Option{supOpt},
				})
				if err != nil {
					return nil, err
				}
				return d.Object(), nil
			},
			shard.WithKey("Search", shard.StringKey(0)),
		)
	} else {
		srv.d, err = dict.New(dict.Options{
			SearchMax:  32,
			SearchCost: *searchCost,
			Combine:    true,
			ObjOpts:    []alps.Option{supOpt},
		})
	}
	if err != nil {
		return nil, "", err
	}
	srv.b, err = buffer.New(*bufSlots, supOpt)
	if err != nil {
		return nil, "", err
	}
	// Durability: open the ledger before the database object exists, create
	// the object with its journal attached, then recover — restore the
	// newest snapshot and replay journaled writes through the object's own
	// call surface — before the listener opens.
	var journal *alps.ObjectJournal
	dbOpt := supOpt
	if *dataDir != "" {
		if *fabricID != "" {
			// Before anything is opened, so a refused directory is untouched.
			if err := refuseRetiredFabricJournal(*dataDir); err != nil {
				return nil, "", err
			}
		}
		srv.store, err = alps.OpenStore(*dataDir, alps.DurabilityOptions{SnapshotEvery: *snapEvery})
		if err != nil {
			return nil, "", err
		}
		journal = srv.store.Journal("Database", alps.JournalOptions{Skip: rwdb.JournalSkip})
		doo := oo
		doo.Journal = journal
		dbOpt = alps.WithObjectOptions(doo)
	}
	srv.db, err = rwdb.New(rwdb.Config{ReadMax: *readMax, ObjOpts: []alps.Option{dbOpt}})
	if err != nil {
		return nil, "", err
	}
	if journal != nil {
		replayed, rerr := journal.Recover(srv.db.Hooks())
		if rerr != nil {
			return nil, "", rerr
		}
		st := srv.store.Stats()
		fmt.Printf("alpsd: recovered ledger: %d outcomes (%d replayed), %d acks, snapshot@%d, %d torn bytes truncated, %d segments, %s\n",
			st.Outcomes, replayed, st.Acks, st.SnapshotAt, st.TornBytes, st.Segments, st.Duration)
	}
	srv.sp, err = spooler.New(spooler.Config{Printers: *printers, PageCost: *pageCost, ObjOpts: []alps.Option{supOpt}})
	if err != nil {
		return nil, "", err
	}

	srv.nm = &rpc.Metrics{Supervision: sup}
	srv.node = rpc.NewNodeWith(*name, rpc.NodeOptions{
		Metrics: srv.nm,
		Durable: srv.store,
	})
	if srv.dg != nil {
		if err := srv.node.PublishCallable(srv.dg.Name(), srv.dg); err != nil {
			return nil, "", err
		}
	} else if err := srv.node.Publish(srv.d.Object()); err != nil {
		return nil, "", err
	}
	if err := srv.node.Publish(srv.b.Object()); err != nil {
		return nil, "", err
	}
	if err := srv.node.Publish(srv.db.Object()); err != nil {
		return nil, "", err
	}
	if err := srv.node.Publish(srv.sp.Object()); err != nil {
		return nil, "", err
	}
	if *peersSpec != "" || *replicaID != "" || *join {
		if *peersSpec == "" || *replicaID == "" {
			return nil, "", fmt.Errorf("replication needs both -replica-id and -peers")
		}
		peers, perr := parsePeers(*peersSpec)
		if perr != nil {
			return nil, "", perr
		}
		if _, ok := peers[*replicaID]; !ok {
			return nil, "", fmt.Errorf("-replica-id %q is not listed in -peers", *replicaID)
		}
		var snap func() ([]byte, error)
		var restore func([]byte) error
		srv.reg, snap, restore, err = newRegistry(supOpt)
		if err != nil {
			return nil, "", err
		}
		// A rejoining member is slow to campaign: it should catch up as a
		// follower, not force an election on the group it crashed out of.
		et := 150 * time.Millisecond
		if *join {
			et *= 3
		}
		srv.rep, err = alps.ReplicatedObject(srv.node, alps.ReplicaConfig{
			ID:              *replicaID,
			Group:           "Registry",
			Peers:           peers,
			Store:           srv.store,
			ElectionTimeout: et,
			Snapshot:        snap,
			Restore:         restore,
			// Registry lookups are pure reads: serve them on the ReadIndex
			// fast path — no log append, no journal sync, one shared quorum
			// confirmation — instead of replicating every Get.
			ReadOnly: func(entry string) bool { return entry == "Get" },
			Metrics:  srv.nm,
			Logf: func(format string, args ...any) {
				fmt.Printf("alpsd: "+format+"\n", args...)
			},
		}, srv.reg)
		if err != nil {
			return nil, "", err
		}
	}
	if *fabricID != "" || *fabricMembers != "" {
		if *fabricID == "" || *fabricMembers == "" {
			return nil, "", fmt.Errorf("the shard fabric needs both -fabric-id and -fabric-members")
		}
		members, merr := parsePeers(*fabricMembers)
		if merr != nil {
			return nil, "", merr
		}
		// The flags describe the boot ring (epoch 0 for a founding member);
		// a newer ring recovered from the store (or learned from any peer)
		// supersedes it.
		ring, rerr := fabric.NewRing(*fabricEpoch, *fabricSeed, *fabricVNodes, members)
		if rerr != nil {
			return nil, "", rerr
		}
		srv.fh, err = fabric.NewHost(fabric.HostOptions{
			ID:         *fabricID,
			Spec:       ring.Spec(),
			Shards:     *fabricShards,
			MaxPending: *fabricMaxPend,
			Store:      srv.store,
			Logf: func(format string, args ...any) {
				fmt.Printf("alpsd: fabric: "+format+"\n", args...)
			},
		})
		if err != nil {
			return nil, "", err
		}
		if err := srv.node.PublishCallable("fabric", srv.fh); err != nil {
			return nil, "", err
		}
		rec := srv.fh.Recovery()
		fmt.Printf("alpsd: fabric member %s: recovered %d keys, checkpoint@%d, %d records replayed, ring %s\n",
			*fabricID, rec.Keys, rec.CheckpointLSN, rec.Replayed, srv.fh.Spec())
	}
	if *defsPath != "" {
		src, err := os.ReadFile(*defsPath)
		if err != nil {
			return nil, "", err
		}
		srv.defObjs, err = defs.BuildAll(string(src))
		if err != nil {
			return nil, "", err
		}
		for _, obj := range srv.defObjs {
			if err := srv.node.Publish(obj); err != nil {
				return nil, "", err
			}
		}
	}
	// A participant the data dir holds state for but these flags did not
	// wire (a restart without its -peers or -fabric-id) makes every store
	// snapshot defer, and the log grows until it is wired again.
	if srv.store != nil {
		if names := srv.store.Unclaimed(); len(names) > 0 {
			fmt.Printf("alpsd: unclaimed store participants %v: snapshots defer until they are wired again\n", names)
		}
	}
	bound, err := srv.node.ListenAndServe(*addr)
	if err != nil {
		return nil, "", err
	}
	ok = true
	return srv, bound, nil
}

// errRetiredFabricJournal reports a -data-dir written by a build that kept
// the fabric's journal in a log of its own under fabric/, outside the node's
// store.
var errRetiredFabricJournal = errors.New("retired fabric journal layout")

// refuseRetiredFabricJournal fails, touching nothing, when dataDir still
// holds such a journal. It is acknowledged history this build does not read:
// an empty fabric booted beside it would count keys it already counted from
// zero again.
func refuseRetiredFabricJournal(dataDir string) error {
	old := filepath.Join(dataDir, "fabric")
	segs, err := filepath.Glob(filepath.Join(old, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		return err
	}
	return fmt.Errorf("%w: %s holds %d log segments; this build journals the fabric through the store in %s and will not start beside history it cannot read — reshard the member's keys away with the build that wrote them, then start this one on an empty -data-dir",
		errRetiredFabricJournal, old, len(segs), dataDir)
}

// parsePeers parses "id=host:port,id=host:port,..." into a peer map.
func parsePeers(spec string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers element %q (want id=host:port)", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate member %q in -peers", id)
		}
		peers[id] = addr
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return peers, nil
}

// newRegistry builds the object the replication group hosts: a flat
// string registry with non-blocking entries — guards that never park, so
// replicated apply can never stall the group (docs/REPLICATION.md
// §limits). Returns the object plus the snapshot/restore pair log
// compaction and rejoin catch-up use.
func newRegistry(supOpt alps.Option) (*alps.Object, func() ([]byte, error), func([]byte) error, error) {
	var mu sync.Mutex
	data := make(map[string]string)
	obj, err := alps.New("Registry",
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
		supOpt,
	)
	if err != nil {
		return nil, nil, nil, err
	}
	snapshot := func() ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(data); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
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

// Close tears the node and all hosted objects down.
func (s *server) Close() {
	// The replication member first: it stops proposing and fails parked
	// waiters before the node drains their links.
	if s.rep != nil {
		s.rep.Close()
	}
	if s.node != nil {
		s.node.Close()
	}
	// After the node drained (in-flight fabric calls finished) but before
	// the store it journals through closes: stop the handoff loop, drop
	// peer connections and close the ledger.
	if s.fh != nil {
		_ = s.fh.Close()
	}
	if m := s.nm; m != nil {
		// Transport totals at drain: flushes vs frames shows how well the
		// combining write queue coalesced (frames/flush ≈ 1 means lock-step
		// callers, tens means saturated pipelining — docs/WIRE.md).
		sent, recv := m.FramesSent.Value(), m.FramesRecv.Value()
		flushes := m.Flushes.Value()
		perFlush := float64(sent)
		if flushes > 0 {
			perFlush = float64(sent) / float64(flushes)
		}
		fmt.Printf("alpsd: transport: %d B out / %d B in, %d frames out / %d in, %d flushes (%.1f frames/flush), %d dedup replays\n",
			m.BytesSent.Value(), m.BytesRecv.Value(), sent, recv, flushes, perFlush, m.DedupHits.Value())
		// Replication fast-path totals (leader-side; zero on followers):
		// proposals vs rounds shows how well the combiner coalesced, the
		// batch/window histograms whether the pipeline actually ran deep,
		// and the read counters how many calls skipped the log entirely.
		if s.rep != nil {
			props, rounds := m.ReplProposals.Value(), m.ReplRounds.Value()
			fmt.Printf("alpsd: replication: %d proposals in %d rounds (%d combined), batch %s, window %s\n",
				props, rounds, m.ReplCombined.Value(), m.ReplBatch.String(), m.ReplWindow.String())
			fmt.Printf("alpsd: replication reads: %d served via ReadIndex (%d confirm rounds, %d retries bounced)\n",
				m.ReplReads.Value(), m.ReplReadRounds.Value(), m.ReplReadRetries.Value())
		}
	}
	if s.d != nil {
		_ = s.d.Close()
	}
	if s.dg != nil {
		_ = s.dg.Close()
	}
	if s.b != nil {
		_ = s.b.Close()
	}
	if s.db != nil {
		_ = s.db.Close()
	}
	if s.sp != nil {
		_ = s.sp.Close()
	}
	if s.reg != nil {
		_ = s.reg.Close()
	}
	for _, obj := range s.defObjs {
		_ = obj.Close()
	}
	// Last, after the node drained and the objects stopped delivering calls:
	// flush and close the ledger so every acknowledged outcome is on disk
	// before the process exits.
	if s.store != nil {
		_ = s.store.Close()
		if err := s.store.Stats().SnapshotErr; err != nil {
			fmt.Printf("alpsd: store: last snapshot failed: %v\n", err)
		}
	}
}
