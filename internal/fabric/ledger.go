// The ledger is the fabric's per-node state machine: a shard.Group whose
// replicas each own a disjoint slice of the node's resident keys. Every
// entry is routed by key through the group's key-affinity router and
// executed inline on the shard's manager, so one key's calls — appends,
// the Extract tombstone, Install, Forget — form a single FIFO stream.
// That ordering is what makes drain-then-redirect work: an Extract queued
// behind in-flight Appends executes only after they finish, and every
// Append queued after it observes the tombstone and sends its caller to the
// key's new home instead.
package fabric

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/shard"
)

// Ledger entry statuses. They travel as plain result values (not errors)
// because only the sentinel error kinds survive the wire codec; a typed
// status tuple keeps the protocol's full vocabulary intact end to end.
const (
	statusOK         = "ok"          // executed (or deduplicated) here
	statusDup        = "dup"         // idempotent repeat of a completed step
	statusNone       = "none"        // key not resident
	statusMoved      = "moved"       // tombstone: the key left; redirect to its new home
	statusWrongOwner = "wrong-owner" // this node never owned the key; re-resolve
	statusRetry      = "retry"       // transient: ring still settling, try again
	statusGap        = "gap"         // client sequence gap: oracle-grade failure
	statusStale      = "stale"       // install older than resident state
)

// journalFn stages one fabric record: it appends the record to the node's
// journal — so LSNs follow the order of the lock or manager the caller runs
// under — and returns the LSN without waiting for the disk. Nothing the
// record describes may be acknowledged or revealed before Host.durable has
// returned for that LSN; the wait belongs to whoever sends the answer, not to
// whoever orders the records. The record vocabulary:
//
//	advance [spec]
//	settled [member, epoch]
//	append  [key, client, seq, epoch, count]
//	extract [key, destSpec, state]
//	install [key, epoch, state]
//	forget  [key]
//
// The first two are the host's; a shard writes the rest, and its Replay
// entry is their inverse.
type journalFn func(entry string, params ...any) (lsn uint64, err error)

// newLedger builds the node's ledger group: shards key-affine replicas
// holding keyState maps. maxPending bounds each shard's pending Append
// calls with reject-newest shedding (core.ErrOverload), the admission
// control the router surfaces as a typed OverloadError.
func newLedger(shards, maxPending int, nodeID string, stage journalFn, durable func(lsn uint64) error) (*shard.Group, error) {
	return shard.New("Fabric", shards,
		func(i int, shardName string) (*core.Object, error) {
			return newLedgerShard(shardName, maxPending, nodeID, stage, durable)
		},
		shard.WithKey("Append", shard.StringKey(0)),
		shard.WithKey("Extract", shard.StringKey(0)),
		shard.WithKey("Install", shard.StringKey(0)),
		shard.WithKey("InstallCheck", shard.StringKey(0)),
		shard.WithKey("Forget", shard.StringKey(0)),
		shard.WithKey("Audit", shard.StringKey(0)),
		shard.WithKey("Restore", shard.StringKey(0)),
		shard.WithKey("Replay", shard.StringKey(0)),
	)
}

// newLedgerShard builds one replica. The states map is confined to the
// shard's manager: every entry is intercepted and executed inline on the
// manager process, so bodies need no locking and observe a total order.
func newLedgerShard(name string, maxPending int, nodeID string, stage journalFn, durable func(lsn uint64) error) (*core.Object, error) {
	states := make(map[string]*keyState)
	// staged is the highest LSN this shard has staged. Every entry that
	// reveals ledger state returns it, and the host waits for it before the
	// answer leaves: the manager never waits for the disk on the append path,
	// and no reader runs ahead of it.
	var staged uint64
	// record is the handoff path's form: the record is durable on return (and
	// with it every earlier one), at the price of an fsync on the manager.
	record := func(entry string, params ...any) error {
		lsn, err := stage(entry, params...)
		if err != nil {
			return err
		}
		staged = lsn
		return durable(lsn)
	}
	// installed is the shard's move-arbitration memory: per key, one past
	// the highest epoch at which an install was ever accepted here (0 =
	// never), kept past Forget. A crashed source that re-pushes a
	// completed move transaction is answered "dup" from this memory —
	// re-accepting the image after the key moved on would resurrect a
	// stale, executable replica of the lineage. Checkpointed with the
	// states and rebuilt from journal install records on recovery.
	installed := make(map[string]uint64)

	// Append(key, client, seq, payload, owned, gate, epoch) ->
	// (status, epoch, count, info, node, lsn). The record of a fresh append is
	// only staged: lsn is what the host must see durable before it answers —
	// the append's own record, or, for an answer read from resident state,
	// everything the shard has staged. owned/gate/epoch are the host's
	// view of the current ring at routing time; the body re-checks them
	// only for fresh keys — resident state always wins, which is precisely
	// the grandfathering window that lets the old owner drain queued calls
	// before the tombstone lands. For deduplicated retries, epoch/node
	// are the ORIGINAL execution's, read from the client's dedup tail.
	appendBody := func(inv *core.Invocation) error {
		key, _ := inv.Param(0).(string)
		client, _ := inv.Param(1).(string)
		seq, _ := inv.Param(2).(uint64)
		owned, _ := inv.Param(4).(bool)
		gate, _ := inv.Param(5).(bool)
		epoch, _ := inv.Param(6).(uint64)
		st := states[key]
		if st == nil {
			switch {
			case !owned:
				inv.Return(statusWrongOwner, uint64(0), uint64(0), "", "", uint64(0))
				return nil
			case !gate:
				// A prior owner may still hold this key's dedup history;
				// creating a parallel fresh history here would lose it.
				inv.Return(statusRetry, uint64(0), uint64(0), "settle", "", uint64(0))
				return nil
			case seq != 0:
				// The client is ahead of a key this node has never seen:
				// its history is still in flight — the settle gate holds
				// the fresh path closed while any source is known-unsettled,
				// but a late image can land at its arbiter after the source
				// settled, and the rescan's re-push takes a moment. Back
				// off without creating state; only a resident entry can
				// prove a genuine sequence gap.
				inv.Return(statusRetry, epoch, uint64(0), "arriving", "", uint64(0))
				return nil
			}
			st = newKeyState(epoch)
			states[key] = st
		}
		if st.Moved {
			inv.Return(statusMoved, st.Epoch, uint64(0), st.MovedSpec, "", staged)
			return nil
		}
		if cr, known := st.Clients[client]; known && seq <= cr.Seq {
			if seq == cr.Seq {
				// Retry of the client's last append:
				// answer from the ledger, never re-execute — and describe
				// the ORIGINAL execution (its epoch and node), not the
				// key's current placement, so a retry answered after a
				// migration doesn't fabricate an epoch-regressing ack.
				inv.Return(statusOK, cr.Epoch, cr.Count, "dup", cr.Node, staged)
				return nil
			}
			inv.Return(statusOK, st.Epoch, uint64(0), "dup-old", "", staged)
			return nil
		}
		want := uint64(0)
		if cr, known := st.Clients[client]; known {
			want = cr.Seq + 1
		}
		if seq != want {
			inv.Return(statusGap, st.Epoch, want, "", "", staged)
			return nil
		}
		prev, hadPrev := st.Clients[client]
		st.Count++
		st.Clients[client] = clientRec{Seq: seq, Count: st.Count, Epoch: st.Epoch, Node: nodeID}
		lsn, err := stage("append", key, client, seq, st.Epoch, st.Count)
		if err != nil {
			// Never acknowledge an unjournaled execution: roll the
			// mutation back and fail the call.
			st.Count--
			if hadPrev {
				st.Clients[client] = prev
			} else {
				delete(st.Clients, client)
			}
			return fmt.Errorf("fabric: journal append: %w", err)
		}
		staged = lsn
		inv.Return(statusOK, st.Epoch, st.Count, "", nodeID, lsn)
		return nil
	}

	// Extract(key, destSpec) -> (status, state). Plants the tombstone and
	// returns the serialized ledger entry for the push to the new owner.
	// Repeats return "dup" with the same state, so a crashed handoff can
	// simply re-extract on restart.
	extractBody := func(inv *core.Invocation) error {
		key, _ := inv.Param(0).(string)
		destSpec, _ := inv.Param(1).(string)
		st := states[key]
		if st == nil {
			inv.Return(statusNone, []byte(nil))
			return nil
		}
		if st.Moved {
			b, err := encodeState(st)
			if err != nil {
				return err
			}
			inv.Return(statusDup, b)
			return nil
		}
		if spec, err := ParseSpec(destSpec); err == nil && st.Epoch > spec.Epoch() {
			// The key arrived under a ring NEWER than the handoff pass's
			// snapshot: the pass raced the install, and the key is not
			// misplaced — it is home under the ring that carried it here.
			// Extracting it pinned at the older ring would push it back
			// into its own wake, where the previous owner's install
			// memory (correctly) answers dup and both sides would then
			// forget the only live copy. Skip; a pass under a ring at
			// least as new as the resident epoch moves it if it is still
			// misplaced then. This also keeps a key's placement epoch
			// monotone along its lineage, which is what makes the
			// install memory a sound arbiter in the first place.
			inv.Return(statusRetry, []byte(nil))
			return nil
		}
		st.Moved = true
		st.MovedSpec = destSpec
		b, err := encodeState(st)
		if err != nil {
			st.Moved = false
			st.MovedSpec = ""
			return err
		}
		if err := record("extract", key, destSpec, b); err != nil {
			st.Moved = false
			st.MovedSpec = ""
			return fmt.Errorf("fabric: journal extract: %w", err)
		}
		inv.Return(statusOK, b)
		return nil
	}

	// Install(key, epoch, state) -> (status). Applies the handed-off
	// ledger entry at its new home. Precedence is by lineage: Count only
	// grows along a key's single history, so the image with the higher
	// Count is always the newer one regardless of which ring epoch carried
	// it — a crashed handoff's re-pushed (stale, lower-Count) image must
	// never displace a live copy, and a returning live copy must displace
	// the tombstone it left behind. Ties break by placement epoch, which
	// keeps duplicate pushes idempotent.
	installBody := func(inv *core.Invocation) error {
		key, _ := inv.Param(0).(string)
		epoch, _ := inv.Param(1).(uint64)
		b, _ := inv.Param(2).([]byte)
		if epoch < installed[key] {
			// This move transaction (or a later one) already delivered
			// here; the pushing source can safely Forget. The state may
			// have moved on since — answering dup instead of re-accepting
			// is what keeps one installable image per key in flight.
			inv.Return(statusDup)
			return nil
		}
		ns, err := decodeState(b)
		if err != nil {
			return err
		}
		if st := states[key]; st != nil {
			if ns.Count < st.Count || (ns.Count == st.Count && epoch <= st.Epoch) {
				if st.Moved {
					inv.Return(statusStale)
				} else {
					inv.Return(statusDup)
				}
				return nil
			}
		}
		ns.Epoch = epoch
		ns.Moved = false
		ns.MovedSpec = ""
		prev := states[key]
		states[key] = ns
		if err := record("install", key, epoch, b); err != nil {
			if prev != nil {
				states[key] = prev
			} else {
				delete(states, key)
			}
			return fmt.Errorf("fabric: journal install: %w", err)
		}
		installed[key] = epoch + 1
		inv.Return(statusOK)
		return nil
	}

	// InstallCheck(key, epoch) -> (status). Read-only probe of the
	// arbitration memory: "dup" when an install at epoch (or later) was
	// already accepted here, "none" otherwise. The host consults it before
	// refusing a stale-placement push — a completed transaction is
	// answered "dup" from memory, a first delivery is sent back to the
	// source to re-pin at the current ring.
	installCheckBody := func(inv *core.Invocation) error {
		key, _ := inv.Param(0).(string)
		epoch, _ := inv.Param(1).(uint64)
		if epoch < installed[key] {
			inv.Return(statusDup)
		} else {
			inv.Return(statusNone)
		}
		return nil
	}

	// Forget(key) -> (status). Drops a tombstone once the install it
	// covers has been acknowledged; late calls for the key then meet no
	// entry instead of the tombstone. Only tombstones are
	// ever dropped — live state can leave a node exclusively via Extract.
	forgetBody := func(inv *core.Invocation) error {
		key, _ := inv.Param(0).(string)
		st := states[key]
		if st == nil || !st.Moved {
			inv.Return(statusNone)
			return nil
		}
		delete(states, key)
		if err := record("forget", key); err != nil {
			states[key] = st
			return fmt.Errorf("fabric: journal forget: %w", err)
		}
		inv.Return(statusOK)
		return nil
	}

	// Audit(key) -> (status, state, lsn). Read-only snapshot of the key's
	// ledger entry for the conformance oracle's convergence check; the host
	// waits for lsn, so an audit never shows an append a crash could lose.
	auditBody := func(inv *core.Invocation) error {
		key, _ := inv.Param(0).(string)
		st := states[key]
		if st == nil {
			inv.Return(statusNone, []byte(nil), staged)
			return nil
		}
		b, err := encodeState(st)
		if err != nil {
			return err
		}
		inv.Return(statusOK, b, staged)
		return nil
	}

	// Restore(key, *keyState, installedFence) -> (status). Recovery-only
	// load of one checkpointed key, before the node serves traffic; never
	// journaled itself. The state is nil for keys whose entry was forgotten
	// but whose install memory (the fence, epoch+1 form) must survive the
	// restart.
	restoreBody := func(inv *core.Invocation) error {
		key, _ := inv.Param(0).(string)
		st, _ := inv.Param(1).(*keyState)
		fence, _ := inv.Param(2).(uint64)
		installed[key] = max(installed[key], fence)
		if st != nil {
			if st.Clients == nil {
				st.Clients = make(map[string]clientRec)
			}
			states[key] = st
		}
		inv.Return(statusOK)
		return nil
	}

	// Replay(key, entry, params) -> (status). Recovery only: re-applies one
	// of this shard's own journal records, in LSN order. The checkpoint
	// underneath may already reflect the record and any number after it
	// (the store's floor is fuzzy). Re-applying is still exact: every
	// record of the key above the floor follows in order; extract, install
	// and forget replace the entry whole; and an append sets Count and one
	// client's tail, which only a later record of the same key changes.
	replayBody := func(inv *core.Invocation) error {
		key, _ := inv.Param(0).(string)
		entry, _ := inv.Param(1).(string)
		p, _ := inv.Param(2).([]any)
		switch entry {
		case "append":
			client, cok := param[string](p, 1)
			seq, sok := param[uint64](p, 2)
			epoch, eok := param[uint64](p, 3)
			count, nok := param[uint64](p, 4)
			if !cok || !sok || !eok || !nok || len(p) != 5 {
				return badRecord(entry, p)
			}
			st := states[key]
			if st == nil {
				st = newKeyState(epoch)
				states[key] = st
			}
			st.Count = count
			// The journaled epoch is the placement epoch the append ran at,
			// and it ran here: the dedup tail must reproduce the original
			// acknowledgement after recovery.
			st.Clients[client] = clientRec{Seq: seq, Count: count, Epoch: epoch, Node: nodeID}
		case "extract":
			destSpec, dok := param[string](p, 1)
			b, bok := param[[]byte](p, 2)
			if !dok || !bok || len(p) != 3 {
				return badRecord(entry, p)
			}
			st, err := decodeState(b)
			if err != nil {
				return err
			}
			st.Moved = true
			st.MovedSpec = destSpec
			states[key] = st
		case "install":
			epoch, eok := param[uint64](p, 1)
			b, bok := param[[]byte](p, 2)
			if !eok || !bok || len(p) != 3 {
				return badRecord(entry, p)
			}
			st, err := decodeState(b)
			if err != nil {
				return err
			}
			// Only accepted installs are journaled: every record feeds the
			// arbitration memory and replaces the entry, as it did live.
			installed[key] = max(installed[key], epoch+1)
			st.Epoch = epoch
			st.Moved = false
			st.MovedSpec = ""
			states[key] = st
		case "forget":
			if len(p) != 1 {
				return badRecord(entry, p)
			}
			delete(states, key)
		default:
			return badRecord(entry, p)
		}
		inv.Return(statusOK)
		return nil
	}

	// Keys() -> (map[string]bool). One shard's resident keys, each true when
	// it is a tombstone; the host broadcasts and merges.
	keysBody := func(inv *core.Invocation) error {
		keys := make(map[string]bool, len(states))
		for k, st := range states {
			keys[k] = st.Moved
		}
		inv.Return(keys)
		return nil
	}

	// Checkpoint() -> (json shardCheckpoint, lsn). Every key's entry and
	// install fence, captured together because the manager runs nothing else
	// meanwhile, and the LSN the blob must not be published ahead of.
	checkpointBody := func(inv *core.Invocation) error {
		sc := make(shardCheckpoint, len(installed))
		for k, fence := range installed {
			sc[k] = keyCheckpoint{Fence: fence}
		}
		for k, st := range states {
			sc[k] = keyCheckpoint{State: st, Fence: installed[k]}
		}
		b, err := json.Marshal(sc)
		if err != nil {
			return err
		}
		inv.Return(b, staged)
		return nil
	}

	// Every entry is intercepted and executed inline by the manager.
	entries := []core.EntrySpec{
		{Name: "Append", Params: 7, Results: 6, Body: appendBody, MaxPending: maxPending, Shed: core.ShedRejectNewest},
		{Name: "Extract", Params: 2, Results: 2, Body: extractBody},
		{Name: "Install", Params: 3, Results: 1, Body: installBody},
		{Name: "InstallCheck", Params: 2, Results: 1, Body: installCheckBody},
		{Name: "Forget", Params: 1, Results: 1, Body: forgetBody},
		{Name: "Audit", Params: 1, Results: 3, Body: auditBody},
		{Name: "Restore", Params: 3, Results: 1, Body: restoreBody},
		{Name: "Replay", Params: 3, Results: 1, Body: replayBody},
		{Name: "Keys", Results: 1, Body: keysBody},
		{Name: "Checkpoint", Results: 2, Body: checkpointBody},
	}
	opts := make([]core.Option, 0, len(entries)+1)
	intercepts := make([]core.InterceptSpec, 0, len(entries))
	for _, e := range entries {
		opts = append(opts, core.WithEntry(e))
		intercepts = append(intercepts, core.Intercept(e.Name))
	}
	opts = append(opts, core.WithManager(func(m *core.Mgr) {
		execute := func(a *core.Accepted) { _, _ = m.Execute(a) }
		guards := make([]core.Guard, 0, len(entries))
		for _, e := range entries {
			guards = append(guards, core.OnAccept(e.Name, execute))
		}
		_ = m.Loop(guards...)
	}, intercepts...))
	return core.New(name, opts...)
}
