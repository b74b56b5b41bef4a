package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/testutil"
)

// bootServer is newServer, retrying the bind: the previous incarnation may
// still hold the port for a moment, and a peer dialing a reserved-but-not-
// yet-bound loopback port can self-connect and hold it too.
func bootServer(t *testing.T, args []string) *server {
	t.Helper()
	for tries := 0; ; tries++ {
		srv, _, err := newServer(args)
		if err == nil {
			return srv
		}
		if tries == 40 || !strings.Contains(err.Error(), "address already in use") {
			t.Fatalf("newServer%v: %v", args, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestFabricMemberRestartsPastStoreSnapshots: a fabric member journals
// through the store alpsd opens for -data-dir, and -snapshot-every is its
// checkpoint cadence. Stopped and started again over the same directory it
// recovers from the checkpoint at the last multiple of -snapshot-every plus
// exactly the records above it — below the first, from the records alone —
// and its ledger is what it was.
func TestFabricMemberRestartsPastStoreSnapshots(t *testing.T) {
	const every = 64
	for _, tc := range []struct {
		name    string
		appends int
	}{
		{"below the first snapshot", 40},
		{"one record short of it", every - 1},
		{"exactly at it", every},
		{"past several snapshots", 5*every + 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			addr := reservePorts(t, 1)[0]
			args := []string{
				"-addr", addr, "-data-dir", dir, "-snapshot-every", fmt.Sprint(every),
				"-fabric-id", "n0", "-fabric-members", "n0=" + addr, "-fabric-shards", "2",
				"-search-cost", "0s",
			}
			srv := bootServer(t, args)
			stop := srv.Close
			defer func() { stop() }()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			router, err := fabric.NewRouter(srv.fh.Spec(), fabric.RouterOptions{ClientID: "restart-test"})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6"}
			var last fabric.Exec
			for i := 1; i <= tc.appends; i++ {
				if last, err = router.Append(ctx, keys[i%len(keys)], uint64((i-1)/len(keys)), nil); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				if i%every == 0 {
					// The store snapshots beside the appends; let this one
					// land so the floors are the multiples of `every`.
					snap := filepath.Join(dir, fmt.Sprintf("snap-%016d.db", i))
					testutil.WaitUntil(t, snap, func() bool { _, err := os.Stat(snap); return err == nil })
				}
			}
			audits := func() map[string]fabric.Audit {
				out := map[string]fabric.Audit{}
				for _, k := range keys {
					a, err := router.Audit(ctx, k)
					if err != nil {
						t.Fatal(err)
					}
					out[k] = a
				}
				return out
			}
			want := audits()
			if lsn := srv.store.SyncedLSN(); lsn != uint64(tc.appends) {
				t.Fatalf("%d appends left %d records in the store", tc.appends, lsn)
			}
			if _, err := os.Stat(filepath.Join(dir, "fabric")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("the fabric keeps something of its own under %s/fabric (stat: %v)", dir, err)
			}
			stop()

			srv = bootServer(t, args)
			stop = srv.Close
			floor := tc.appends - tc.appends%every
			wantRec := fabric.Recovery{Keys: min(len(keys), tc.appends), CheckpointLSN: uint64(floor), Replayed: tc.appends - floor}
			if rec := srv.fh.Recovery(); rec != wantRec {
				t.Fatalf("recovery = %+v, want %+v", rec, wantRec)
			}
			// Every snapshot pruned the log to its floor: however many records
			// were ever written, a restart reads the last segment or two.
			if st := srv.store.Stats(); st.Segments > 2 {
				t.Fatalf("store reopened over %d segments", st.Segments)
			}
			if got := audits(); !reflect.DeepEqual(got, want) {
				t.Fatalf("ledger changed across the restart:\n got %v\nwant %v", got, want)
			}
			dup, err := router.Append(ctx, last.Key, last.Seq, nil)
			if err != nil {
				t.Fatal(err)
			}
			if dup.Info != "dup" || dup.Count != last.Count || dup.Epoch != last.Epoch || dup.Node != last.Node {
				t.Fatalf("retry after restart = %+v, want a dup of %+v", dup, last)
			}
			// The node journals no ack on top of the ledger's own records:
			// none in the log, none in the checkpoint of its table.
			stop()
			stop = func() {}
			wantEntries := 0
			if floor == 0 {
				wantEntries = -1 // no snapshot
			}
			if records, entries := testutil.AckLedger(t, nil, dir); records != 0 || entries != wantEntries {
				t.Fatalf("the node's ack ledger holds %d records and a checkpoint of %d entries, want 0 and %d", records, entries, wantEntries)
			}
		})
	}
}

// TestUnclaimedParticipantNamedAtStartup: a fabric member's data dir
// restarted without -fabric-id holds journaled state nothing wires, so every
// store snapshot defers. The daemon says so once at startup, by name.
func TestUnclaimedParticipantNamedAtStartup(t *testing.T) {
	dir := t.TempDir()
	addr := reservePorts(t, 1)[0]
	srv := bootServer(t, []string{"-addr", addr, "-data-dir", dir, "-search-cost", "0s",
		"-fabric-id", "n0", "-fabric-members", "n0=" + addr})
	router, err := fabric.NewRouter(srv.fh.Spec(), fabric.RouterOptions{ClientID: "unclaimed-test"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = router.Append(ctx, "k", 0, nil)
	router.Close()
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() { b, _ := io.ReadAll(r); out <- string(b) }()
	stdout := os.Stdout
	os.Stdout = w
	func() {
		defer func() { os.Stdout = stdout; w.Close() }()
		srv = bootServer(t, []string{"-addr", "127.0.0.1:0", "-data-dir", dir})
	}()
	defer srv.Close()
	printed := <-out
	if got := srv.store.Unclaimed(); !reflect.DeepEqual(got, []string{"fabric"}) {
		t.Fatalf("unclaimed = %v, want [fabric]", got)
	}
	if want := "alpsd: unclaimed store participants [fabric]: "; strings.Count(printed, want) != 1 {
		t.Fatalf("startup output does not name the unclaimed participant once (%q):\n%s", want, printed)
	}
}

// TestRetiredFabricJournalRefusedUntouched: a -data-dir that still holds the
// fabric's own journal under fabric/ (builds before the fabric joined the
// node's store wrote one) is refused with a typed error before anything is
// opened: same names, same sizes, nothing new. Without -fabric-id the old
// journal is nobody's business and the daemon starts.
func TestRetiredFabricJournalRefusedUntouched(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "fabric")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "wal-0000000000000001.log"), []byte("acknowledged history"), 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		var out []string
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err == nil {
				out = append(out, fmt.Sprintf("%s %d", path, info.Size()))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := listing()
	srv, _, err := newServer([]string{
		"-addr", "127.0.0.1:0", "-data-dir", dir,
		"-fabric-id", "n0", "-fabric-members", "n0=127.0.0.1:1",
	})
	if err == nil {
		srv.Close()
		t.Fatal("alpsd booted an empty fabric beside an unread fabric journal")
	}
	if !errors.Is(err, errRetiredFabricJournal) {
		t.Fatalf("refusal is not typed: %v", err)
	}
	if after := listing(); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused directory changed:\nbefore %v\nafter  %v", before, after)
	}
	srv, _, err = newServer([]string{"-addr", "127.0.0.1:0", "-data-dir", dir})
	if err != nil {
		t.Fatalf("a daemon without -fabric-id must not care: %v", err)
	}
	srv.Close()
}
