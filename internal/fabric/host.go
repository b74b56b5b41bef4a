package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wal"
)

// HostOptions configures one fabric node.
type HostOptions struct {
	// ID is this node's member id; it must appear in Spec.
	ID string
	// Spec is the initial ring (Ring.Spec format). A newer ring recovered
	// from the journal, or learned from any peer or client, supersedes it.
	Spec string
	// Shards is the ledger shard count (default 4).
	Shards int
	// MaxPending bounds each ledger shard's pending Append calls; beyond
	// it the shard sheds with core.ErrOverload (0 = unbounded).
	MaxPending int
	// Store, when non-nil, is the node's durability store. The fabric
	// journals there as the participant "fabric": every executed append,
	// handoff step and ring advance is on stable storage before it is
	// acknowledged (an append's record is staged by its shard's manager and
	// awaited by the goroutine serving the call), the store's snapshots
	// carry the fabric's checkpoint, and recovery restores
	// the newest checkpoint and replays the records above it, so a SIGKILL
	// loses nothing acknowledged. The caller closes the store, after the
	// Host.
	Store *wal.Store
	// Dir is the standalone form, for a Host with no node store around it:
	// with Store nil and Dir set the Host opens, owns and closes a store of
	// its own in Dir.
	Dir string
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// standaloneSnapshotEvery is the checkpoint cadence of a store the Host
// opened itself (alpsd's -snapshot-every default).
const standaloneSnapshotEvery = 4096

// journalObject is the fabric's participant name in the store.
const journalObject = "fabric"

// Host is one fabric node: a key-affine ledger group, the node's view of
// the ring, the drain-then-redirect handoff worker and the settled-vector
// bookkeeping. Publish it on an rpc.Node as a Callable (conventionally
// under the name "fabric") and route client calls through a Router.
type Host struct {
	id       string
	group    *shard.Group
	journal  *wal.ObjectJournal // nil when durability is off
	ownStore *wal.Store         // the standalone form's store, closed with the Host
	peers    *peers
	logf     func(format string, args ...any)
	recovery Recovery

	mu         sync.Mutex
	ring       *Ring
	known      map[string]string // every member id -> addr ever seen
	settled    map[string]uint64 // member -> highest settled epoch
	completed  uint64            // own outgoing obligations done through this epoch
	closed     bool
	advancing  *Ring  // newest ring with a staged advance record; checkpoints carry it
	advanceLSN uint64 // that record's LSN

	// gateEpoch caches the highest epoch whose fresh-create gate has been
	// observed satisfied; the gate is monotone, so the cache never lies.
	gateEpoch  atomic.Uint64
	refreshing atomic.Bool

	kick    chan struct{}
	closeCh chan struct{}
	done    chan struct{}
}

// Recovery is what NewHost found in the store.
type Recovery struct {
	Keys          int    // resident ledger entries, tombstones included
	CheckpointLSN uint64 // floor of the checkpoint restored (0 = none)
	Replayed      int    // records replayed above it
}

// checkpoint is the fabric's blob in a store snapshot: the ring, the
// settled vector and, per ledger shard, every key's entry and install
// fence (shardCheckpoint, as that shard's manager encoded it).
type checkpoint struct {
	Spec    string            `json:"spec"`
	Settled map[string]uint64 `json:"settled"`
	Shards  []json.RawMessage `json:"shards"`
}

// shardCheckpoint is one ledger shard's share of a checkpoint.
type shardCheckpoint map[string]keyCheckpoint

type keyCheckpoint struct {
	State *keyState `json:"state,omitempty"` // nil: forgotten, only the fence is left
	Fence uint64    `json:"fence,omitempty"`
}

// NewHost builds a node: recovers the ledger from the store (when there is
// one) and starts the handoff worker. The returned Host is ready to
// publish.
func NewHost(opts HostOptions) (*Host, error) {
	ring, err := ParseSpec(opts.Spec)
	if err != nil {
		return nil, err
	}
	if !ring.Has(opts.ID) {
		return nil, fmt.Errorf("fabric: member %q is not in ring %q", opts.ID, opts.Spec)
	}
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	h := &Host{
		id:      opts.ID,
		peers:   newPeers(2 * time.Second),
		logf:    opts.Logf,
		known:   make(map[string]string),
		settled: make(map[string]uint64),
		kick:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if h.logf == nil {
		h.logf = func(string, ...any) {}
	}
	h.installRing(ring)

	store := opts.Store
	if store == nil && opts.Dir != "" {
		store, err = wal.OpenStore(opts.Dir, wal.StoreOptions{SnapshotEvery: standaloneSnapshotEvery})
		if err != nil {
			return nil, fmt.Errorf("fabric: open journal: %w", err)
		}
		h.ownStore = store
	}
	if store != nil {
		h.journal = store.Journal(journalObject, wal.JournalOptions{})
	}
	h.group, err = newLedger(opts.Shards, opts.MaxPending, opts.ID, h.stage, h.durable)
	if err == nil && store != nil {
		err = h.recover(store)
	}
	if err != nil {
		h.closeLedger()
		return nil, err
	}
	h.completed = h.settled[h.id]

	go h.handoffLoop()
	h.kickHandoff()
	return h, nil
}

// recover restores the newest checkpoint and replays the records above it,
// straight into the ledger shards: when Recover returns, the state the
// Snapshot hook reads is whole.
func (h *Host) recover(store *wal.Store) error {
	restored := false
	replayed, err := h.journal.Recover(wal.RecoverHooks{
		Restore: func(blob []byte) error {
			restored = true
			return h.restoreCheckpoint(blob)
		},
		Replay:   h.replay,
		Snapshot: h.checkpoint,
	})
	if err != nil {
		return fmt.Errorf("fabric: recover: %w", err)
	}
	keys, err := h.residentKeys()
	if err != nil {
		return fmt.Errorf("fabric: recover: %w", err)
	}
	h.recovery = Recovery{Keys: len(keys), Replayed: replayed}
	if restored {
		h.recovery.CheckpointLSN = store.Stats().SnapshotAt
	}
	return nil
}

// Recovery reports what NewHost recovered from the store.
func (h *Host) Recovery() Recovery { return h.recovery }

// checkpoint is the store's Snapshot hook. The store read its floor BEFORE
// calling it, so the blob may already reflect records above the floor;
// replay is idempotent over those — provided it sees them all. A shard's
// blob may hold appends whose records are only staged, so the blob is not
// handed over until every shard's staged LSN is durable: were a crash to
// lose such a record, replaying an earlier append of the key (it SETS the
// count) would put the count back beneath a tail the checkpoint kept. Each
// shard's states and install fences are captured together by one
// manager-exclusive entry.
func (h *Host) checkpoint() ([]byte, error) {
	h.mu.Lock()
	cp := checkpoint{Spec: newer(h.ring, h.advancing).Spec(), Settled: maps.Clone(h.settled)}
	staged := h.advanceLSN
	h.mu.Unlock()
	results, err := h.group.Broadcast(context.Background(), "Checkpoint")
	if err != nil {
		return nil, fmt.Errorf("fabric: checkpoint: %w", err)
	}
	for _, res := range results {
		b, _ := res[0].([]byte)
		cp.Shards = append(cp.Shards, b)
		lsn, _ := res[1].(uint64)
		staged = max(staged, lsn)
	}
	if err := h.durable(staged); err != nil {
		return nil, fmt.Errorf("fabric: checkpoint: %w", err)
	}
	return json.Marshal(cp)
}

// restoreCheckpoint is the store's Restore hook; it runs before any replay.
func (h *Host) restoreCheckpoint(blob []byte) error {
	var cp checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		return fmt.Errorf("%w: checkpoint: %v", ErrBadState, err)
	}
	ring, err := ParseSpec(cp.Spec)
	if err != nil {
		return fmt.Errorf("%w: checkpoint ring: %v", ErrBadState, err)
	}
	h.installRing(ring)
	for member, epoch := range cp.Settled {
		h.settled[member] = max(h.settled[member], epoch)
	}
	for _, raw := range cp.Shards {
		var sc shardCheckpoint
		if err := json.Unmarshal(raw, &sc); err != nil {
			return fmt.Errorf("%w: checkpoint shard: %v", ErrBadState, err)
		}
		// Shard membership is recomputed by key, so a restart may change
		// the shard count.
		for key, kc := range sc {
			if _, err := h.group.Call("Restore", key, kc.State, kc.Fence); err != nil {
				return fmt.Errorf("fabric: restore key %q: %w", key, err)
			}
		}
	}
	return nil
}

// replay is the store's Replay hook: apply one journaled record, in LSN
// order. Ring advances and settled levels fold into the host (both are
// maxima, so re-applying one the checkpoint already reflects changes
// nothing); the per-key records go to the key's ledger shard.
func (h *Host) replay(entry string, p []any) error {
	switch entry {
	case "advance":
		spec, ok := param[string](p, 0)
		if !ok || len(p) != 1 {
			return badRecord(entry, p)
		}
		ring, err := ParseSpec(spec)
		if err != nil {
			return fmt.Errorf("%w: advance: %v", ErrBadState, err)
		}
		h.installRing(ring)
	case "settled":
		member, mok := param[string](p, 0)
		epoch, eok := param[uint64](p, 1)
		if !mok || !eok || len(p) != 2 {
			return badRecord(entry, p)
		}
		h.settled[member] = max(h.settled[member], epoch)
	default:
		// A shard's record: its first parameter is the key that routes it.
		key, ok := param[string](p, 0)
		if !ok {
			return badRecord(entry, p)
		}
		_, err := h.group.Call("Replay", key, entry, p)
		return err
	}
	return nil
}

func badRecord(entry string, p []any) error {
	return fmt.Errorf("%w: journal record %s%v", ErrBadState, entry, p)
}

// installRing makes ring the node's ring unless it already holds one at
// least as new, and remembers every member's address. Caller holds h.mu
// (or is the only goroutine, during NewHost).
func (h *Host) installRing(ring *Ring) {
	h.ring = newer(h.ring, ring)
	for _, id := range ring.Members() {
		h.known[id] = ring.Addr(id)
	}
}

// stage is the Host's journalFn: it appends one record to the node's
// journal and returns its LSN. Call it under whatever orders the record —
// a shard's manager, h.mu — and wait (durable) outside it where the path
// is hot.
func (h *Host) stage(entry string, params ...any) (uint64, error) {
	if h.journal == nil {
		return 0, nil
	}
	return h.journal.Append(entry, params)
}

// durable blocks until the journal holds every record up to lsn on stable
// storage (group commit: concurrent waiters share fsyncs). A failure is
// sticky in the journal: the member acknowledges nothing until it restarts.
func (h *Host) durable(lsn uint64) error {
	if h.journal == nil {
		return nil
	}
	return h.journal.WaitDurable(lsn)
}

// journalRecord stages one of the host's own records and waits for it.
func (h *Host) journalRecord(entry string, params ...any) error {
	lsn, err := h.stage(entry, params...)
	if err != nil {
		return err
	}
	return h.durable(lsn)
}

// ID reports the node's member id.
func (h *Host) ID() string { return h.id }

// Spec reports the node's current ring spec.
func (h *Host) Spec() string { return h.ringSnapshot().Spec() }

func (h *Host) ringSnapshot() *Ring {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ring
}

func (h *Host) completedLevel() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.completed
}

// adopt parses spec and, when it names a newer epoch than the node's
// current ring, journals and installs it and wakes the handoff worker.
// Ring knowledge spreads through every message that carries a spec —
// Install, Settled, Status, Reshard — so one Reshard call anywhere
// eventually reaches every node.
func (h *Host) adopt(spec string) error {
	if spec == "" {
		return nil
	}
	ring, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrClosed
	}
	if ring.Epoch() <= h.ring.Epoch() {
		h.mu.Unlock()
		return nil
	}
	// Journal the advance before the new ring steers a single call: a
	// node must never acknowledge routing decisions it would forget. The
	// record is staged under h.mu and waited for outside it, so a held
	// fsync stalls only the adopters, never the readers of the ring; a
	// checkpoint meanwhile carries advancing, and installRing keeps the
	// newer ring when concurrent adopts finish out of order.
	lsn, err := h.stage("advance", ring.Spec())
	if err == nil && newer(h.advancing, ring) == ring {
		h.advancing, h.advanceLSN = ring, lsn
	}
	h.mu.Unlock()
	if err == nil {
		err = h.durable(lsn)
	}
	h.mu.Lock()
	closed := h.closed
	if err == nil && !closed {
		h.installRing(ring)
	}
	h.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err != nil {
		return fmt.Errorf("fabric: journal advance: %w", err)
	}
	h.logf("fabric: %s adopted ring epoch %d (%d members)", h.id, ring.Epoch(), len(ring.Members()))
	h.kickHandoff()
	return nil
}

// recordSettled folds one member's settled epoch into the vector: journaled
// first, published after, so the fresh-create gate never opens on a level a
// crash would forget. Concurrent callers may journal levels out of order;
// the vector (here and in replay) keeps the maximum.
func (h *Host) recordSettled(member string, epoch uint64) {
	h.mu.Lock()
	stale := h.closed || epoch <= h.settled[member]
	h.mu.Unlock()
	if stale {
		return
	}
	if err := h.journalRecord("settled", member, epoch); err != nil {
		h.logf("fabric: journal settled(%s@%d): %v", member, epoch, err)
		return
	}
	h.mu.Lock()
	h.settled[member] = max(h.settled[member], epoch)
	h.mu.Unlock()
}

// gateOK reports whether fresh keys may be created at epoch: every other
// member this node has ever seen must have settled through epoch, which
// guarantees no prior owner still holds (or has in transit) dedup history
// for a key this node now owns. The predicate is monotone, so a satisfied
// epoch is cached.
func (h *Host) gateOK(epoch uint64) bool {
	if h.gateEpoch.Load() >= epoch {
		return true
	}
	h.mu.Lock()
	ok := true
	for id := range h.known {
		if id == h.id {
			continue
		}
		if h.settled[id] < epoch {
			ok = false
			break
		}
	}
	h.mu.Unlock()
	if ok {
		for {
			cur := h.gateEpoch.Load()
			if cur >= epoch || h.gateEpoch.CompareAndSwap(cur, epoch) {
				break
			}
		}
	}
	return ok
}

// CallCtx implements rpc.Callable: the node's wire surface. An Append runs
// only at the node holding the key; any other node — one the key never
// reached, or one whose tombstone says it left — answers wrong-owner with
// the newest ring it knows, and the caller goes to the owner itself.
//
//	Append(key, client, seq, payload)               -> (status, member, epoch, count, info)
//	Install(key, epoch, state, spec)                -> (status)
//	Settled(member, epoch, spec)                    -> (status)
//	Reshard(spec)                                   -> (status, spec)
//	Status([spec])                                  -> (member, spec, completed, settled)
//	Audit(key)                                      -> (status, state, spec)
//
// Status's settled vector is a map[string]any of member id to uint64 epoch.
func (h *Host) CallCtx(ctx context.Context, entry string, params ...core.Value) ([]core.Value, error) {
	switch entry {
	case "Append":
		key, kok := param[string](params, 0)
		client, cok := param[string](params, 1)
		seq, sok := param[uint64](params, 2)
		if !kok || !cok || !sok || len(params) != 4 {
			return nil, fmt.Errorf("fabric: Append(key, client, seq, payload): %w", core.ErrBadArity)
		}
		payload, _ := param[[]byte](params, 3)
		return h.append(ctx, key, client, seq, payload)
	case "Install":
		key, kok := param[string](params, 0)
		epoch, eok := param[uint64](params, 1)
		state, bok := param[[]byte](params, 2)
		spec, pok := param[string](params, 3)
		if !kok || !eok || !bok || !pok || len(params) != 4 {
			return nil, fmt.Errorf("fabric: Install(key, epoch, state, spec): %w", core.ErrBadArity)
		}
		if err := h.adopt(spec); err != nil {
			return nil, err
		}
		ring := h.ringSnapshot()
		if epoch < ring.Epoch() && ring.Owner(key) != h.id {
			// A lagging source is delivering a placement this node's ring
			// has moved past. This node is the move transaction's arbiter:
			// if its install memory says the transaction already completed,
			// answer dup (the lineage lives downstream — re-accepting would
			// resurrect a stale, executable replica next to the live copy).
			// A first delivery is REFUSED with the current spec instead of
			// accepted: never-accepted means the source still holds the
			// key's unique lineage head, so it can safely re-pin the push
			// at the newer ring — and it stays unsettled until the image
			// lands at the serving owner, which is what holds that owner's
			// fresh-create gate closed ahead of the state's arrival.
			// Accepting here (this node is settled) would park the image on
			// a node the ring no longer routes to and open that gate with
			// the history still in flight.
			chk, err := h.group.CallCtx(ctx, "InstallCheck", key, epoch)
			if err != nil {
				return nil, err
			}
			if st, _ := chk[0].(string); st == statusDup {
				return []core.Value{statusDup, ring.Spec()}, nil
			}
			return []core.Value{statusWrongOwner, ring.Spec()}, nil
		}
		res, err := h.group.CallCtx(ctx, "Install", key, epoch, state)
		if err != nil {
			return nil, err
		}
		if st, _ := res[0].(string); st == statusOK && h.ringSnapshot().Owner(key) != h.id {
			// The ring advanced while the install was in flight: the key
			// just landed misplaced. Wake the handoff worker, which moves
			// misplaced residents even when already settled.
			h.kickHandoff()
		}
		return []core.Value{res[0], h.Spec()}, nil
	case "Settled":
		member, mok := param[string](params, 0)
		epoch, eok := param[uint64](params, 1)
		spec, pok := param[string](params, 2)
		if !mok || !eok || !pok || len(params) != 3 {
			return nil, fmt.Errorf("fabric: Settled(member, epoch, spec): %w", core.ErrBadArity)
		}
		if err := h.adopt(spec); err != nil {
			return nil, err
		}
		h.recordSettled(member, epoch)
		return []core.Value{statusOK}, nil
	case "Reshard":
		spec, pok := param[string](params, 0)
		if !pok || len(params) != 1 {
			return nil, fmt.Errorf("fabric: Reshard(spec): %w", core.ErrBadArity)
		}
		if err := h.adopt(spec); err != nil {
			return nil, err
		}
		return []core.Value{statusOK, h.Spec()}, nil
	case "Status":
		if len(params) == 1 {
			if spec, ok := param[string](params, 0); ok {
				if err := h.adopt(spec); err != nil && !errors.Is(err, ErrClosed) {
					h.logf("fabric: adopt from status: %v", err)
				}
			}
		}
		h.mu.Lock()
		vec := make(map[string]any, len(h.settled))
		for id, e := range h.settled {
			vec[id] = e
		}
		completed := h.completed
		h.mu.Unlock()
		return []core.Value{h.id, h.Spec(), completed, vec}, nil
	case "Audit":
		key, kok := param[string](params, 0)
		if !kok || len(params) != 1 {
			return nil, fmt.Errorf("fabric: Audit(key): %w", core.ErrBadArity)
		}
		res, err := h.group.CallCtx(ctx, "Audit", key)
		if err != nil {
			return nil, err
		}
		if err := h.revealed(res[2]); err != nil {
			return nil, err
		}
		return []core.Value{res[0], res[1], h.Spec()}, nil
	default:
		return nil, fmt.Errorf("fabric: %q: %w", entry, core.ErrUnknownEntry)
	}
}

// CallSession is the node's serve surface for calls that carry a client
// identity. The Host owns their at-most-once, so the node keeps no dedup
// entry (and journals no ack) for them: the ledger's per-key client tails
// answer a duplicate Append from the original execution, wherever the key
// lives now (a retry that meets a tombstone is redirected there), the
// install fence answers a duplicate Install, and every other entry is a
// max-merge of ring or settled levels, or a read.
func (h *Host) CallSession(ctx context.Context, _ string, _ uint64, entry string, params []any) ([]any, error) {
	return h.CallCtx(ctx, entry, params...)
}

// param extracts a typed parameter, tolerating short slices.
func param[T any](params []core.Value, i int) (T, bool) {
	var zero T
	if i >= len(params) {
		return zero, false
	}
	v, ok := params[i].(T)
	if !ok {
		return zero, false
	}
	return v, ok
}

// revealed waits until what a ledger entry just answered from is durable:
// lsn is the entry's last result, the LSN its shard staged up to.
func (h *Host) revealed(lsn core.Value) error {
	n, _ := lsn.(uint64)
	if err := h.durable(n); err != nil {
		return fmt.Errorf("fabric: journal: %w", err)
	}
	return nil
}

// append serves one keyed append: route into the ledger, wait — here, on the
// goroutine serving the call, not on the shard's manager — until the record
// the shard staged is on stable storage, then translate the shard's verdict
// into the wire tuple: serving, redirecting the caller to the key's owner, or
// telling it to back off.
func (h *Host) append(ctx context.Context, key, client string, seq uint64, payload []byte) ([]core.Value, error) {
	ring := h.ringSnapshot()
	owned := ring.Owner(key) == h.id
	gate := false
	if owned {
		gate = h.gateOK(ring.Epoch())
		if !gate {
			// Only consulted for fresh keys, but kick anti-entropy now so
			// a blocked create converges without waiting for gossip luck.
			defer h.refreshSettled()
		}
	}
	res, err := h.group.CallCtx(ctx, "Append", key, client, seq, payload, owned, gate, ring.Epoch())
	if err != nil {
		return nil, err
	}
	if err := h.revealed(res[5]); err != nil {
		return nil, err
	}
	status, _ := res[0].(string)
	epoch, _ := res[1].(uint64)
	count, _ := res[2].(uint64)
	info, _ := res[3].(string)
	node, _ := res[4].(string)
	switch status {
	case statusOK:
		// The ledger names the member that actually executed the append —
		// for a deduplicated retry that is the ORIGINAL node, which may not
		// be this one.
		if node == "" {
			node = h.id
		}
		return []core.Value{status, node, epoch, count, info}, nil
	case statusGap:
		return []core.Value{status, h.id, epoch, count, info}, nil
	case statusWrongOwner:
		return []core.Value{statusWrongOwner, h.id, ring.Epoch(), uint64(0), ring.Spec()}, nil
	case statusRetry:
		return []core.Value{statusRetry, h.id, ring.Epoch(), uint64(0), info}, nil
	case statusMoved:
		// The key has left: answer as for a key this node never held, with
		// the newer of the tombstone's ring and the node's own, and the
		// caller calls the owner itself.
		dest, err := ParseSpec(info)
		if err != nil {
			return nil, fmt.Errorf("fabric: tombstone spec: %w", err)
		}
		dest = newer(dest, h.ringSnapshot())
		if dest.Owner(key) == h.id {
			// A newer ring routes the key back here; the in-flight install
			// will land shortly.
			return []core.Value{statusRetry, h.id, dest.Epoch(), uint64(0), "returning"}, nil
		}
		return []core.Value{statusWrongOwner, h.id, dest.Epoch(), uint64(0), dest.Spec()}, nil
	default:
		return nil, fmt.Errorf("fabric: unexpected ledger status %q", status)
	}
}

// refreshSettled pulls Status from every member whose settled epoch lags
// the current ring, folding their levels (and any newer ring) back in.
// It is the anti-entropy path that revives gossip after crashes: a
// settled broadcast a node missed while dead is re-learned here the
// first time a blocked fresh-create asks for it.
func (h *Host) refreshSettled() {
	if !h.refreshing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer h.refreshing.Store(false)
		ring := h.ringSnapshot()
		epoch := ring.Epoch()
		h.mu.Lock()
		var stale []string
		for id := range h.known {
			if id != h.id && h.settled[id] < epoch {
				stale = append(stale, id)
			}
		}
		h.mu.Unlock()
		for _, id := range stale {
			if h.isClosed() {
				return
			}
			h.pollStatus(id)
		}
	}()
}

// pollStatus asks one member for its settled level, exchanging ring specs
// both ways.
func (h *Host) pollStatus(member string) {
	addr := h.addrOf(member)
	if addr == "" {
		return
	}
	rem, err := h.peers.conn(member, addr)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	res, err := rem.CallCtx(ctx, "fabric", "Status", h.Spec())
	cancel()
	if err != nil || len(res) != 4 {
		return
	}
	id, _ := res[0].(string)
	spec, _ := res[1].(string)
	completed, _ := res[2].(uint64)
	if err := h.adopt(spec); err != nil && !errors.Is(err, ErrClosed) {
		h.logf("fabric: adopt from status poll: %v", err)
	}
	if id != "" {
		h.recordSettled(id, completed)
	}
	for mid, e := range settledVector(res[3]) {
		h.recordSettled(mid, e)
	}
}

// settledVector reads the settled vector of a Status answer.
func settledVector(v core.Value) map[string]uint64 {
	m, _ := v.(map[string]any)
	vec := make(map[string]uint64, len(m))
	for id, e := range m {
		if e, ok := e.(uint64); ok {
			vec[id] = e
		}
	}
	return vec
}

func (h *Host) addrOf(member string) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if a := h.ring.Addr(member); a != "" {
		return a
	}
	return h.known[member]
}

func (h *Host) kickHandoff() {
	select {
	case h.kick <- struct{}{}:
	default:
	}
}

func (h *Host) isClosed() bool {
	select {
	case <-h.closeCh:
		return true
	default:
		return false
	}
}

// handoffLoop is the node's single handoff worker: whenever the ring
// advances past the node's settled level it drains and pushes every
// resident key the new ring places elsewhere, then declares itself
// settled. One worker means extractions are serial per node — deliberate:
// handoff throughput is bounded by the destination's install rate anyway,
// and a single in-order pass makes crash recovery a plain re-run.
func (h *Host) handoffLoop() {
	defer close(h.done)
	h.broadcastSettled()
	for {
		select {
		case <-h.closeCh:
			return
		case <-h.kick:
		}
		for h.runHandoff() {
			if h.isClosed() {
				return
			}
		}
	}
}

// runHandoff performs one pass against a ring snapshot; it reports
// whether the ring advanced meanwhile and another pass is needed. The
// pass also runs when the node is already settled but holds misplaced
// residents — a late install (accepted mid-advance) or a recovered
// journal can land state the current ring places elsewhere, and it must
// move out even though no epoch boundary is being crossed.
func (h *Host) runHandoff() bool {
	ring := h.ringSnapshot()
	resident, err := h.residentKeys()
	if err != nil {
		// Settling on a partial enumeration would open peers' fresh-create
		// gate ahead of history still resident here; the next kick retries.
		h.logf("fabric: %s handoff to epoch %d: %v", h.id, ring.Epoch(), err)
		return false
	}
	var moving []string
	for key, tombstone := range resident {
		// A tombstone is a push not yet acknowledged, and its state may be
		// the key's only copy: finish the push even when the ring routes the
		// key back here (the arbiter then sends it home), or every call for
		// the key is answered "returning" for good.
		if tombstone || ring.Owner(key) != h.id {
			moving = append(moving, key)
		}
	}
	if h.completedLevel() >= ring.Epoch() && len(moving) == 0 {
		return false
	}
	h.logf("fabric: %s handoff to epoch %d: %d keys moving", h.id, ring.Epoch(), len(moving))
	for _, key := range moving {
		if h.isClosed() {
			return false
		}
		res, err := h.group.Call("Extract", key, ring.Spec())
		if err != nil {
			h.logf("fabric: extract %q: %v", key, err)
			return false
		}
		status, _ := res[0].(string)
		if status == statusNone || status == statusRetry {
			// None: already gone. Retry: the key was installed under a
			// ring newer than this pass's snapshot — it is not misplaced
			// and must not be pushed back into its own wake; a later
			// pass re-evaluates it under a fresher ring.
			continue
		}
		state, _ := res[1].([]byte)
		if !h.pushInstall(key, state) {
			return false
		}
		if _, err := h.group.Call("Forget", key); err != nil {
			h.logf("fabric: forget %q: %v", key, err)
			return false
		}
	}
	h.setCompleted(ring.Epoch())
	h.broadcastSettled()
	return h.ringSnapshot().Epoch() > ring.Epoch()
}

// residentKeys enumerates this node's resident keys, each true when it is a
// tombstone (so interrupted pushes resume). All shards answer or it fails.
func (h *Host) residentKeys() (map[string]bool, error) {
	results, err := h.group.Broadcast(context.Background(), "Keys")
	if err != nil {
		return nil, fmt.Errorf("fabric: enumerate keys: %w", err)
	}
	out := make(map[string]bool)
	for _, res := range results {
		keys, _ := res[0].(map[string]bool)
		maps.Copy(out, keys)
	}
	return out, nil
}

// pushInstall delivers one extracted key to its new home, retrying with
// backoff until the destination acknowledges (it may be dead or
// partitioned — the e2e chaos plan restarts and heals, and the push must
// survive until then). The delivery is PINNED to the ring the key was
// extracted under (the tombstone's MovedSpec, travelling inside state):
// the pinned destination is the move transaction's arbiter — only it can
// tell a first delivery from a crashed source's re-push of a transaction
// that already completed (dup from its journal-backed install memory).
// The ONE re-targeting the push ever does is on the arbiter's explicit
// wrong-owner refusal: never-accepted means this image is still the
// key's unique lineage head — no downstream copy can exist — so re-
// pinning it at the arbiter's newer ring is fork-free. Pushing anywhere
// without that verdict could land a stale image next to the live copy
// and fork the lineage. Returns false only when the host is closing.
func (h *Host) pushInstall(key string, state []byte) bool {
	dest := h.ringSnapshot()
	if st, err := decodeState(state); err == nil && st.MovedSpec != "" {
		if ring, err := ParseSpec(st.MovedSpec); err == nil {
			dest = ring
		}
	}
	backoff := 10 * time.Millisecond
	for {
		if h.isClosed() {
			return false
		}
		target := dest.Owner(key)
		if target == h.id {
			// A refusal chain led the key back home: install locally (the
			// lineage guard in the ledger keeps this idempotent) and let
			// the handoff rescan move it again if the current ring says so.
			if _, err := h.group.Call("Install", key, dest.Epoch(), state); err == nil {
				h.kickHandoff()
				return true
			}
			h.sleep(backoff)
			continue
		}
		rem, err := h.peers.conn(target, dest.Addr(target))
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
			res, cerr := rem.CallCtx(ctx, "fabric", "Install", key, dest.Epoch(), state, dest.Spec())
			cancel()
			if cerr == nil && len(res) >= 1 {
				var spec string
				if len(res) >= 2 {
					spec, _ = res[1].(string)
					if err := h.adopt(spec); err != nil && !errors.Is(err, ErrClosed) {
						h.logf("fabric: adopt from install reply: %v", err)
					}
				}
				switch status, _ := res[0].(string); status {
				case statusWrongOwner:
					// The arbiter never accepted this transaction and its
					// ring has moved past the pinned placement: re-pin at
					// the ring it returned and deliver the head there.
					if ring, err := ParseSpec(spec); err == nil && ring.Epoch() > dest.Epoch() {
						dest = ring
						continue
					}
				case statusRetry:
					// Transient at the destination; keep pushing.
				default:
					return true // ok, dup or stale: the move is complete
				}
			}
		}
		h.sleep(backoff)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// setCompleted records the node's own settled level.
func (h *Host) setCompleted(epoch uint64) {
	h.mu.Lock()
	if epoch > h.completed {
		h.completed = epoch
	}
	h.mu.Unlock()
	h.recordSettled(h.id, epoch)
	h.logf("fabric: %s settled through epoch %d", h.id, epoch)
}

// broadcastSettled announces the node's settled level to every known
// member, best effort — a peer that misses it (dead, partitioned) pulls
// it later via refreshSettled.
func (h *Host) broadcastSettled() {
	completed := h.completedLevel()
	if completed == 0 {
		return
	}
	spec := h.Spec()
	h.mu.Lock()
	members := make([]string, 0, len(h.known))
	for id := range h.known {
		if id != h.id {
			members = append(members, id)
		}
	}
	h.mu.Unlock()
	for _, id := range members {
		if h.isClosed() {
			return
		}
		rem, err := h.peers.conn(id, h.addrOf(id))
		if err != nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _ = rem.CallCtx(ctx, "fabric", "Settled", h.id, completed, spec)
		cancel()
	}
}

func (h *Host) sleep(d time.Duration) {
	select {
	case <-h.closeCh:
	case <-time.After(d):
	}
}

// Close stops the handoff worker, closes peer connections and the ledger
// and, in the standalone form, the store the Host opened.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.mu.Unlock()
	close(h.closeCh)
	<-h.done
	h.peers.close()
	return h.closeLedger()
}

func (h *Host) closeLedger() error {
	var err error
	if h.group != nil {
		err = h.group.Close()
	}
	if h.ownStore != nil {
		err = errors.Join(err, h.ownStore.Close())
	}
	return err
}
