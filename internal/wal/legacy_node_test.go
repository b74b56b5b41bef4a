package wal_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/wal"
)

// TestParentAckLedgerRecoversThroughNode: a directory written by a build that
// kept the node's ack ledger as kind-2 records and a snapshot Dedup table
// still opens and answers its recorded retries. Both shapes read back as
// records of the ledger participant (wal.AckLedger), so the node recovers
// exactly the table that build would have — the snapshot's entries, then the
// log's in LSN order, later ones superseding — and the first snapshot
// afterwards writes neither shape: the table lives on in the ledger's own
// checkpoint, which the next incarnation recovers.
func TestParentAckLedgerRecoversThroughNode(t *testing.T) {
	fs := wal.NewFailFS()
	want, err := wal.WriteParentDir(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	boot := func() (*wal.Store, *rpc.Remote, func()) {
		t.Helper()
		st, err := wal.OpenStore("data", wal.StoreOptions{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Journal("kv", wal.JournalOptions{}).Recover(wal.RecoverHooks{
			Replay:   func(string, []any) error { return nil },
			Snapshot: func() ([]byte, error) { return []byte("kv@now"), nil },
		}); err != nil {
			t.Fatal(err)
		}
		obj, err := core.New("kv", core.WithEntry(core.EntrySpec{Name: "Write", Results: 1,
			Body: func(inv *core.Invocation) error {
				execs.Add(1)
				inv.Return("fresh")
				return nil
			}}))
		if err != nil {
			t.Fatal(err)
		}
		node := rpc.NewNodeWith("n", rpc.NodeOptions{Durable: st})
		if err := node.Publish(obj); err != nil {
			t.Fatal(err)
		}
		addr, err := node.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rem, err := rpc.DialWith(addr, rpc.DialOptions{ClientID: "c"})
		if err != nil {
			t.Fatal(err)
		}
		return st, rem, func() { rem.Close(); node.Close(); _ = obj.Close() }
	}
	// call issues client c's next seq and checks the response.
	call := func(rem *rpc.Remote, seq uint64, res string) {
		t.Helper()
		got, err := rem.Call("kv", "Write")
		if err != nil || len(got) != 1 || got[0] != res {
			t.Fatalf("seq %d = %v, %v; want [%s]", seq, got, err, res)
		}
	}

	st, rem, stop := boot()
	if s := st.Stats(); s.SnapshotAt != 2 || s.Acks != 5 || s.Outcomes != 2 {
		t.Fatalf("recovered %+v; want the floor 2, 5 ack ledger records (2 from the Dedup table, 3 of kind 2) and 2 kv outcomes", s)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		call(rem, seq, want[seq])
	}
	call(rem, 5, "fresh")
	if n := execs.Load(); n != 1 {
		t.Fatalf("the body ran %d times for 4 recorded retries and 1 fresh call, want 1", n)
	}
	if err := st.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if kind2, dedup, err := wal.ParentLeftovers(fs, "data"); err != nil || kind2 != 0 || dedup != 0 {
		t.Fatalf("after the first snapshot: %d kind-2 records, %d Dedup entries (%v); want none", kind2, dedup, err)
	}
	stop()
	fs.Crash()

	st, rem, stop = boot()
	defer stop()
	if s := st.Stats(); s.Acks != 0 {
		t.Fatalf("reopened with %d ack records above the floor, want 0: the checkpoint holds the table", s.Acks)
	}
	want[5] = "fresh"
	for seq := uint64(1); seq <= 5; seq++ {
		call(rem, seq, want[seq])
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("the body ran %d times in all, want 1", n)
	}
}
